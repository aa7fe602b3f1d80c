//! Per-shard doorbells: how an idle dispatcher sleeps without missing
//! work, and how a submitter wakes it without a syscall on a busy
//! service or while one dispatcher spins.
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
//! # The spinner
//!
//! A park and its unpark cost a futex round trip on both sides: the
//! submitter pays the wake syscall, the request waits for the thread to
//! be scheduled again. So for [`SPIN_WINDOW_NS`] after its last batch a
//! dispatcher with nothing to do first tries [`Doorbells::spin`]: it
//! swaps the service-wide `spinner` token, and the one winner polls
//! every queue, yielding its CPU between polls (any runnable thread
//! goes first) and storing a `heartbeat` timestamp at each poll. The
//! losers, and the spinner once it gives up, park through
//! [`Doorbells::wait`] as before. While the token is held and the
//! heartbeat is younger than `HEARTBEAT_FRESH_NS`, a ring skips its
//! unpark: the spinner will find the job on its next poll.
//!
//! ```text
//!  spinner (Doorbells::spin, then wait)  submitter (Doorbells::ring)
//!  spinner.swap(true) won                push job (tail CAS, seq store)
//!  loop: heartbeat = now                 fence(SeqCst)
//!        poll every queue → work?        spinner held && heartbeat fresh?
//!        yield                             yes: skip the unpark
//!  spinner = false                         no: wake owner or peer as above
//!  wait: sleeping = true
//!        fence(SeqCst) ─── pairs with ── the ringer's fence
//!        re-check queues + drain gate
//! ```
//!
//! The skip is safe whatever the clock reads. The spinner drops the
//! token *before* `wait`'s fence, so the token joins `sleeping` in the
//! same Dekker pair: if the ringer's fence comes first, the re-check
//! sees the push; if the spinner's comes first, the ringer sees the
//! token gone and `sleeping` set, and unparks. A spinner that finds
//! work rescans every queue before it can reach `wait` again. The
//! freshness test only bounds latency: a spinner descheduled while it
//! holds the token must not swallow rings, so a stale heartbeat makes
//! the ring wake a sleeper as if nobody spun.
//!
//! Yielding hands the CPU to any runnable thread, so on a contended
//! host two polls can lie far apart. A gap of `SPIN_CONTENDED_GAP_NS`
//! or more ends the spin as [`SpinEnd::Contended`], and the dispatcher
//! parks instead of spinning for `SPIN_BACKOFF_NS`; `spin_verdict`
//! holds the whole rule as a pure function of timestamps.
//!
//! # Drain and timeouts
//!
//! [`Doorbells::ring_all`] follows every change to the drain gate that
//! can make a parked dispatcher's exit condition true: the drain bit,
//! a retracted accept, and a dispatcher's own exit after it observed
//! quiescence. It never skips for the spinner, which ends its spin on a
//! quiescent gate by itself. So a dispatcher may park during a drain
//! too, and the drain still terminates. `tests/loom.rs` model-checks
//! each of these, the spinner hand-off included.
//!
//! A request that a client thread answers itself (a caller-run, see
//! [`crate::service`]) completes at the gate off the dispatchers, so its
//! completion can be the one that makes a drain quiescent while every
//! dispatcher is parked with no timeout. Waking them on every such
//! completion would cost an idle dispatcher a wake-up per read, so
//! [`Doorbells::ring_all_if_draining`] rings only when the drain bit is
//! set, and a fence between the completion and that check pairs with
//! the fence that [`Doorbells::ring_all`] issues after `begin_drain`:
//!
//! ```text
//!  caller-run                     drainer                 dispatcher (wait)
//!  complete (completed += 1)      begin_drain (drain bit)  sleeping = true
//!  fence(SeqCst)                  fence(SeqCst)            fence(SeqCst)
//!  draining? → ring_all           load sleeping → unpark   re-check gate, park
//! ```
//!
//! If the caller's fence comes after the drainer's, it sees the drain
//! bit and rings every bell, which pairs with each dispatcher's own
//! fence as a push's ring does. If it comes first, every dispatcher
//! whose re-check fence follows the drainer's sees both the drain bit
//! and the completion (the fences are totally ordered), so it does not
//! park; one whose fence came earlier is seen sleeping by the drainer
//! and unparked, and re-checks after a fence that follows the
//! drainer's. Without the caller's fence its load of the drain bit
//! could be satisfied before its completion became visible, and both
//! sides could miss each other.
//!
//! A timed park ([`Doorbells::wait`] with a timeout) ends on its own as
//! well as on a ring. The protocol never relies on that: under loom a
//! timed park is an untimed one, so a lost wakeup still deadlocks. Nor
//! does it rely on the clock: under loom a heartbeat always reads fresh,
//! the case in which rings are skipped most.

use crate::drain::DrainGate;
use crate::queue::BoundedQueue;
use crate::sync::{
    fence, park, park_timeout, yield_now, AtomicBool, AtomicU64, OnceLock, Ordering, Thread,
};
use std::time::{Duration, Instant};

/// How long after its last batch an idle dispatcher may spin (ns).
pub const SPIN_WINDOW_NS: u64 = 500_000;

/// Two consecutive polls at least this far apart (ns) mean the spinner
/// lost its CPU: a yield handed it to a runnable thread, or the vCPU
/// was preempted. Host noise on a quiet machine stays well below it.
pub(crate) const SPIN_CONTENDED_GAP_NS: u64 = 300_000;

/// How long a dispatcher whose spin was contended parks instead of
/// spinning (ns).
pub(crate) const SPIN_BACKOFF_NS: u64 = 20_000_000;

/// A ring skips its unpark only while the spinner's last poll is
/// younger than this (ns). Not under loom, where it always is.
#[cfg(not(loom))]
const HEARTBEAT_FRESH_NS: u64 = 10_000;

/// How [`Doorbells::spin`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpinEnd {
    /// A queue holds a poppable job.
    Work,
    /// No spin, or no more: outside the window, backing off, a
    /// quiescent gate, or another dispatcher holds the token. Park.
    Park,
    /// Two polls lay `SPIN_CONTENDED_GAP_NS` or more apart. Back off.
    Contended,
}

/// The spin rule, pure in its timestamps (ns on one clock): whether a
/// spinner whose dispatcher finished its last batch at `last_batch`,
/// backs off until `backoff_until` and polled last at `prev_poll` stops
/// at `now` (and how), or polls again (`None`). A quiescent gate stops
/// it at once: the dispatcher's exit check comes next.
#[must_use]
pub(crate) fn spin_verdict(
    last_batch: u64,
    backoff_until: u64,
    prev_poll: u64,
    now: u64,
    quiescent: bool,
) -> Option<SpinEnd> {
    if quiescent || now < backoff_until {
        Some(SpinEnd::Park)
    } else if now.saturating_sub(prev_poll) >= SPIN_CONTENDED_GAP_NS {
        Some(SpinEnd::Contended)
    } else if now.saturating_sub(last_batch) >= SPIN_WINDOW_NS {
        Some(SpinEnd::Park)
    } else {
        None
    }
}

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
/// dispatcher `i`. Plus the service's one spinner token.
#[derive(Debug)]
pub struct Doorbells {
    bells: Box<[Bell]>,
    /// Held by the one dispatcher inside [`Doorbells::spin`].
    spinner: AtomicBool,
    /// The spinner's last poll, in [`Doorbells::now_ns`] time.
    heartbeat: AtomicU64,
    /// Time zero of [`Doorbells::now_ns`].
    origin: Instant,
}

impl Doorbells {
    /// `n` bells, none sleeping, and nobody spinning.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            bells: (0..n)
                .map(|_| Bell {
                    sleeping: AtomicBool::new(false),
                    waiter: OnceLock::new(),
                })
                .collect(),
            spinner: AtomicBool::new(false),
            heartbeat: AtomicU64::new(0),
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since these bells were made: the clock a dispatcher
    /// hands [`Doorbells::spin`] and the one the heartbeat is read on.
    #[must_use]
    pub(crate) fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
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

    /// An idle dispatcher whose last batch ended at `last_batch` and
    /// whose backoff runs until `backoff_until` (both in `now` time)
    /// spins for work, if `spin_verdict` lets it start and it wins the
    /// service's spinner token: it polls every queue, yielding between
    /// polls and storing each poll's time as the heartbeat, until a
    /// queue holds a job or the verdict stops it. It drops the token
    /// before it returns, so the caller's next [`Doorbells::wait`]
    /// covers every ring skipped meanwhile. See the module docs.
    pub fn spin<T>(
        &self,
        queues: &[BoundedQueue<T>],
        gate: &DrainGate,
        last_batch: u64,
        backoff_until: u64,
        mut now: impl FnMut() -> u64,
    ) -> SpinEnd {
        let mut prev = now();
        if let Some(end) = spin_verdict(last_batch, backoff_until, prev, prev, false) {
            return end;
        }
        // ordering: doorbell-spinner-relaxed
        if self.spinner.swap(true, Ordering::Relaxed) {
            return SpinEnd::Park;
        }
        let end = loop {
            let t = now();
            if let Some(end) = spin_verdict(last_batch, backoff_until, prev, t, gate.quiescent()) {
                break end;
            }
            self.heartbeat.store(t, Ordering::Relaxed); // ordering: doorbell-heartbeat-relaxed
            if queues.iter().any(BoundedQueue::has_ready) {
                break SpinEnd::Work;
            }
            prev = t;
            yield_now();
        };
        self.spinner.store(false, Ordering::Relaxed); // ordering: doorbell-spinner-relaxed
        end
    }

    /// Whether the spinner polled within [`HEARTBEAT_FRESH_NS`]. Always
    /// under loom: the model checker owns time, and a fresh heartbeat
    /// is the case that skips the most rings.
    #[cfg(not(loom))]
    fn heartbeat_fresh(&self) -> bool {
        // ordering: doorbell-heartbeat-relaxed
        let beat = self.heartbeat.load(Ordering::Relaxed);
        self.now_ns().saturating_sub(beat) < HEARTBEAT_FRESH_NS
    }

    #[cfg(loom)]
    fn heartbeat_fresh(&self) -> bool {
        true
    }

    /// A job was just pushed onto `owner`'s queue: unless a spinner with
    /// a fresh heartbeat will find it, wake `owner` if it sleeps, else
    /// the first sleeping peer after it. Returns whether a thread was
    /// woken.
    pub fn ring(&self, owner: usize) -> bool {
        fence(Ordering::SeqCst); // ordering: doorbell-fence
        let spinning = self.spinner.load(Ordering::Relaxed); // ordering: doorbell-spinner-relaxed
        if spinning && self.heartbeat_fresh() {
            return false;
        }
        let n = self.bells.len();
        (0..n).any(|off| self.bells[(owner + off) % n].wake())
    }

    /// The drain gate changed: wake every sleeping dispatcher so each
    /// re-evaluates its exit condition. Returns how many were woken.
    pub fn ring_all(&self) -> usize {
        fence(Ordering::SeqCst); // ordering: doorbell-fence
        self.bells.iter().filter(|bell| bell.wake()).count()
    }

    /// A request just completed at `gate` off the dispatchers (a
    /// caller-run): if the service is draining, that completion may be
    /// the one that makes the gate quiescent, so wake every sleeping
    /// dispatcher as [`Self::ring_all`] does. Outside a drain no
    /// dispatcher waits for it, and nobody is woken. Returns how many
    /// were woken. See the module docs for why the fence is needed.
    pub fn ring_all_if_draining(&self, gate: &DrainGate) -> usize {
        fence(Ordering::SeqCst); // ordering: caller-drain-fence
        if gate.is_draining() {
            self.ring_all()
        } else {
            0
        }
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
    fn contended_gap_starts_a_backoff_that_expires() {
        let gap = SPIN_CONTENDED_GAP_NS;
        assert_eq!(
            spin_verdict(0, 0, 100, 100 + gap, false),
            Some(SpinEnd::Contended),
            "a gap at the threshold"
        );
        assert_eq!(spin_verdict(0, 0, 100, 99 + gap, false), None, "just below");
        let until = 1_000 + SPIN_BACKOFF_NS;
        assert_eq!(
            spin_verdict(until - 10, until, until - 1, until - 1, false),
            Some(SpinEnd::Park),
            "backing off"
        );
        assert_eq!(
            spin_verdict(until - 10, until, until, until, false),
            None,
            "expired"
        );
    }

    #[test]
    fn window_bound_and_quiescence_end_the_spin() {
        let w = SPIN_WINDOW_NS;
        assert_eq!(spin_verdict(0, 0, w - 2, w - 1, false), None);
        assert_eq!(spin_verdict(0, 0, w - 1, w, false), Some(SpinEnd::Park));
        assert_eq!(
            spin_verdict(0, 0, 5, 5, true),
            Some(SpinEnd::Park),
            "at once"
        );
    }

    #[test]
    fn spin_finds_work_and_drops_the_token() {
        let bells = Doorbells::new(2);
        let queues = [BoundedQueue::new(2), BoundedQueue::new(2)];
        queues[1].push(1u8).unwrap();
        let now = || bells.now_ns();
        let end = bells.spin(&queues, &DrainGate::new(), now(), 0, now);
        assert_eq!(end, SpinEnd::Work, "found on the peer's queue");
        // ordering: doorbell-spinner-relaxed
        assert!(!bells.spinner.load(Ordering::Relaxed), "token dropped");
    }

    #[test]
    fn a_held_token_skips_the_ring_only_while_the_heartbeat_is_fresh() {
        let bells = Arc::new(Doorbells::new(1));
        let b = Arc::clone(&bells);
        let waiter = std::thread::spawn(move || {
            b.wait(0, &[BoundedQueue::<u8>::new(2)], &DrainGate::new(), None)
        });
        bells.register(0, waiter.thread().clone());
        // ordering: doorbell-flag-relaxed
        while !bells.bells[0].sleeping.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        // A heartbeat no older than the clock always reads fresh.
        bells.spinner.store(true, Ordering::Relaxed); // ordering: doorbell-spinner-relaxed
        bells.heartbeat.store(u64::MAX, Ordering::Relaxed); // ordering: doorbell-heartbeat-relaxed
        assert!(!bells.ring(0), "a fresh heartbeat swallows the ring");
        bells.heartbeat.store(0, Ordering::Relaxed); // ordering: doorbell-heartbeat-relaxed
        std::thread::sleep(Duration::from_nanos(2 * HEARTBEAT_FRESH_NS));
        assert!(bells.ring(0), "a stale heartbeat wakes the sleeper");
        assert!(waiter.join().unwrap(), "the waiter parked");
    }

    #[test]
    fn spin_gives_up_on_an_empty_window_or_a_contended_clock() {
        let bells = Doorbells::new(1);
        let queues = [BoundedQueue::<u8>::new(2)];
        let gate = DrainGate::new();
        let mut t = 0;
        let step = SPIN_WINDOW_NS / 4;
        let end = bells.spin(&queues, &gate, 0, 0, || {
            t += step;
            t
        });
        assert_eq!(end, SpinEnd::Park, "window expired");
        let mut t = 0;
        let end = bells.spin(&queues, &gate, 0, 0, || {
            t += SPIN_CONTENDED_GAP_NS;
            t
        });
        assert_eq!(end, SpinEnd::Contended);
        // ordering: doorbell-spinner-relaxed
        assert!(!bells.spinner.load(Ordering::Relaxed), "token dropped");
        // Another dispatcher's token: park at once.
        bells.spinner.store(true, Ordering::Relaxed); // ordering: doorbell-spinner-relaxed
        assert_eq!(bells.spin(&queues, &gate, 0, 0, || 1), SpinEnd::Park);
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
