//! Per-shard doorbells: how an idle dispatcher sleeps without missing
//! work, and how a submitter wakes it without a syscall on a busy
//! service.
//!
//! Each dispatcher owns one bell: a `sleeping` flag plus the handle of
//! the thread to unpark, registered once when the dispatcher is spawned
//! and before any ringer exists. Parking and ringing run a Dekker-style
//! handshake:
//!
//! ```text
//!  dispatcher (Doorbells::wait)          submitter (Doorbells::ring)
//!  sleeping = true                       push job (tail CAS, seq store)
//!  fence(SeqCst)  ─────── pairs with ─── fence(SeqCst)
//!  re-check queues + drain gate          load sleeping of owner, peers
//!  park() only if still idle             swap true→false, unpark
//! ```
//!
//! The two `SeqCst` fences are totally ordered. If the submitter's
//! fence comes first, the dispatcher's re-check sees the push (or the
//! gate change); if the dispatcher's comes first, the submitter's load
//! sees `sleeping` and unparks it. A clear flag means that dispatcher
//! has yet to run its fenced re-check, so it will see the job. No
//! interleaving leaves a job queued behind parked dispatchers with
//! nobody ringing. Plain release/acquire is not enough: the queue's
//! ticket loads are `Relaxed`, and a store followed by a load of a
//! *different* location is exactly the reordering only a full fence
//! forbids.
//!
//! [`Doorbells::ring`] wakes the job's own dispatcher when it sleeps.
//! While that dispatcher is awake (busy with a batch), the bell goes to
//! the first sleeping peer instead, which steals the job: work stealing
//! survives parking. A loaded service, whose dispatchers never sleep,
//! makes no wake syscall at all.
//!
//! [`Doorbells::ring_all`] follows every change to the drain gate that
//! can make a parked dispatcher's exit condition true: the drain bit,
//! a retracted accept, and a dispatcher's own exit after it observed
//! quiescence. So a dispatcher may park during a drain too, and the
//! drain still terminates. `tests/loom.rs` model-checks each of these.
//!
//! A timed park ([`Doorbells::wait`] with a timeout) ends on its own as
//! well as on a ring. The protocol never relies on that: under loom a
//! timed park is an untimed one, so a lost wakeup still deadlocks.

use crate::drain::DrainGate;
use crate::queue::BoundedQueue;
use crate::sync::{fence, park, park_timeout, AtomicBool, OnceLock, Ordering, Thread};
use std::time::Duration;

/// One dispatcher's bell. See the module docs.
#[derive(Debug)]
struct Bell {
    /// The owner published that it is about to park (or has parked).
    sleeping: AtomicBool,
    /// The thread to unpark, set once by [`Doorbells::register`].
    waiter: OnceLock<Thread>,
}

impl Bell {
    /// Clear `sleeping` and unpark the owner if the flag was set; of
    /// several racing ringers exactly one wins the swap. Returns whether
    /// this call woke the owner. Callers fence first.
    fn wake(&self) -> bool {
        // ordering: doorbell-flag-relaxed
        if !self.sleeping.load(Ordering::Relaxed) {
            return false;
        }
        // ordering: doorbell-flag-relaxed
        if !self.sleeping.swap(false, Ordering::Relaxed) {
            return false;
        }
        // Always set: an owner registered before any ringer existed.
        if let Some(thread) = self.waiter.get() {
            thread.unpark();
        }
        true
    }
}

/// The per-shard doorbells of one service: bell `i` belongs to
/// dispatcher `i`.
#[derive(Debug)]
pub struct Doorbells {
    bells: Box<[Bell]>,
}

impl Doorbells {
    /// `n` bells, none sleeping.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            bells: (0..n)
                .map(|_| Bell {
                    sleeping: AtomicBool::new(false),
                    waiter: OnceLock::new(),
                })
                .collect(),
        }
    }

    /// Record `thread` as bell `me`'s dispatcher. Call it for every bell
    /// whose owner may park before handing the bells to any thread that
    /// rings: that hand-off is what makes the handle visible to ringers.
    ///
    /// # Panics
    /// Panics if bell `me` already has a dispatcher.
    pub fn register(&self, me: usize, thread: Thread) {
        assert!(
            self.bells[me].waiter.set(thread).is_ok(),
            "bell {me} registered twice"
        );
    }

    /// Dispatcher `me` found nothing to do: publish `sleeping`, then
    /// re-check `queues` and `gate`, and park only if no queue holds a
    /// poppable job and the gate's exit condition is still false; with
    /// `timeout`, for at most that long. Returns whether the thread
    /// parked.
    ///
    /// A push still in flight reads as idle: its producer rings after
    /// the push returns. The thread may also return from `park` early
    /// (a ringer's leftover token, a timeout, or a spurious wakeup), so
    /// the caller re-checks its work after every call.
    pub fn wait<T>(
        &self,
        me: usize,
        queues: &[BoundedQueue<T>],
        gate: &DrainGate,
        timeout: Option<Duration>,
    ) -> bool {
        let bell = &self.bells[me];
        bell.sleeping.store(true, Ordering::Relaxed); // ordering: doorbell-flag-relaxed
        fence(Ordering::SeqCst); // ordering: doorbell-fence
        let parked = !queues.iter().any(BoundedQueue::has_ready) && !gate.quiescent();
        if parked {
            match timeout {
                Some(t) => park_timeout(t),
                None => park(),
            }
        }
        bell.sleeping.store(false, Ordering::Relaxed); // ordering: doorbell-flag-relaxed
        parked
    }

    /// A job was just pushed onto `owner`'s queue: wake `owner` if it
    /// sleeps, else the first sleeping peer after it. Returns whether a
    /// thread was woken.
    pub fn ring(&self, owner: usize) -> bool {
        fence(Ordering::SeqCst); // ordering: doorbell-fence
        let n = self.bells.len();
        (0..n).any(|off| self.bells[(owner + off) % n].wake())
    }

    /// The drain gate changed: wake every sleeping dispatcher so each
    /// re-evaluates its exit condition. Returns how many were woken.
    pub fn ring_all(&self) -> usize {
        fence(Ordering::SeqCst); // ordering: doorbell-fence
        self.bells.iter().filter(|bell| bell.wake()).count()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn busy_ring_wakes_nobody() {
        let bells = Doorbells::new(2);
        assert!(!bells.ring(0));
        assert_eq!(bells.ring_all(), 0);
    }

    #[test]
    fn wait_does_not_park_on_visible_work_or_quiescence() {
        let bells = Doorbells::new(1);
        let queues = [BoundedQueue::new(2)];
        let gate = DrainGate::new();
        queues[0].push(1u8).unwrap();
        assert!(!bells.wait(0, &queues, &gate, None), "a queued job");
        assert!(!bells.ring(0), "flag cleared on return");
        queues[0].pop().unwrap();
        gate.begin_drain();
        assert!(!bells.wait(0, &queues, &gate, None), "a finished drain");
    }

    #[test]
    fn timed_wait_returns_without_a_ring() {
        let bells = Doorbells::new(1);
        let queues = [BoundedQueue::<u8>::new(2)];
        let parked = bells.wait(
            0,
            &queues,
            &DrainGate::new(),
            Some(Duration::from_millis(1)),
        );
        assert!(parked, "parked on idle queues, then timed out");
    }

    #[test]
    fn ring_unparks_a_parked_waiter_or_its_peer() {
        let bells = Arc::new(Doorbells::new(2));
        let b = Arc::clone(&bells);
        // Bell 1 parks on empty queues; bell 0's owner never sleeps, so
        // a ring for queue 0 must go to the sleeping peer.
        let waiter = std::thread::spawn(move || {
            let queues = [BoundedQueue::<u8>::new(2), BoundedQueue::new(2)];
            b.wait(1, &queues, &DrainGate::new(), None)
        });
        bells.register(1, waiter.thread().clone());
        while !bells.ring(0) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(waiter.join().unwrap(), "the waiter parked");
    }
}
