//! Exhaustive model checking of the service's lock-free protocols.
//!
//! Compiled (and run) only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p ferrotcam-serve --test loom
//! ```
//!
//! `loom::model` re-executes each closure under every distinguishable
//! thread interleaving (bounded-preemption DFS), so the assertions
//! below are checked against *all* schedules, not one lucky run:
//!
//! * [`BoundedQueue`] — the Vyukov-style submission ring never loses a
//!   ticket, never duplicates one, and reports full/empty correctly
//!   under concurrent producers.
//! * [`DrainGate`] — the drain-bit/accepted-count shutdown word never
//!   strands an accepted request: once the dispatcher observes
//!   quiescence, no request can have been accepted without also having
//!   been completed.
//! * [`Admission`] — the passthrough fast-flag and the bucket map stay
//!   coherent: a finite bucket is never double-spent by racing admits,
//!   and installing a policy is immediately visible to the installer.
//! * [`EpochCell`] — the snapshot/epoch pair a reader loads is always
//!   consistent (the epoch names exactly the snapshot returned), and
//!   racing updaters serialise without losing a publication.
//! * Work stealing × drain — the per-shard queue topology: a job queued
//!   on one dispatcher's ring is executed exactly once even when the
//!   idle peer steals it, and both dispatchers exit only after the
//!   drained gate is quiescent with every ring empty.
//! * [`Doorbells`] — parking never loses work: an enqueue racing the
//!   dispatcher's publish/re-check/park is always run, a drain wakes
//!   parked dispatchers and resolves every accepted request, and a job
//!   pushed to a busy owner's ring wakes a parked peer that steals it.
//!   A spinning dispatcher that gives up and parks never strands a job
//!   whose ring it made the submitter skip. A lost wakeup leaves a
//!   parked thread nothing can unpark, which the model checker reports
//!   as a deadlock. Orderings are all `SeqCst` here, so these models
//!   check the protocol's logic; the fence pairing it needs on real
//!   hardware is argued in `doorbell.rs`.
//! * Caller-runs — a pinned read that a client answers on its own
//!   thread completes off the dispatchers: when that completion is the
//!   one a drain waits for, it wakes the parked dispatcher, and a read
//!   accepted after a write's ack loads the written snapshot.
//! * [`reply`] — a ticket's one-shot slot resolves exactly once: an
//!   answer sent while the client waits or polls is delivered once, a
//!   sender dropped unanswered resolves to `None`, and a parked client
//!   is always woken.
#![cfg(loom)]

use ferrotcam_serve::doorbell::SPIN_WINDOW_NS;
use ferrotcam_serve::queue::BoundedQueue;
use ferrotcam_serve::reply;
use ferrotcam_serve::{
    Admission, AdmissionClass, Doorbells, DrainGate, EpochCell, RatePolicy, SpinEnd,
};
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;

/// Two producers race to push distinct values; the parent then drains.
/// Every pushed value must come out exactly once.
#[test]
fn queue_no_lost_or_duplicated_tickets() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(2));
        let handles: Vec<_> = (0..2u32)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.push(p).is_ok())
            })
            .collect();
        let accepted: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Capacity 2 with 2 producers: both pushes must land.
        assert!(accepted.iter().all(|&a| a), "push refused below capacity");
        let mut seen = [false; 2];
        while let Some(v) = q.pop() {
            let v = v as usize;
            assert!(!seen[v], "value {v} popped twice");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "value lost in the ring");
        assert!(q.is_empty());
    });
}

/// A full ring rejects the excess push and hands the value back; the
/// rejected value is the producer's own (no swap with a queued one).
/// Two producers race for the single remaining slot.
///
/// An earlier revision of this model ran a capacity-1 ring and caught
/// a real soundness hole: with one slot, "filled by ticket 0"
/// (`seq = 1`) collides with "freed for ticket 1" (`head + capacity =
/// 1`), so both racing pushes succeeded and one value was silently
/// overwritten. `BoundedQueue::new` now rejects capacities below 2.
#[test]
fn queue_full_ring_rejects_without_corruption() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(2));
        q.push(0u32).unwrap();
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.push(1u32).err());
        let mine = q.push(2u32).err();
        let theirs = t.join().unwrap();
        // Exactly one of the two racing pushes fits the last slot.
        match (mine, theirs) {
            (None, Some(v)) => assert_eq!(v, 1, "producer got someone else's value back"),
            (Some(v), None) => assert_eq!(v, 2, "producer got someone else's value back"),
            other => panic!("expected exactly one accepted push, got {other:?}"),
        }
        assert_eq!(q.pop(), Some(0), "FIFO violated");
        let second = q.pop().expect("winning push queued");
        assert!(second == 1 || second == 2);
        assert_eq!(q.pop(), None);
    });
}

/// Concurrent producer and consumer on a ring mid-lap: the consumer
/// sees either nothing or exactly the pushed value, never garbage.
#[test]
fn queue_producer_consumer_handoff() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(2));
        q.push(10u32).unwrap();
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || q2.push(20u32).unwrap());
        let first = q.pop().expect("pre-filled value is poppable");
        assert_eq!(first, 10, "FIFO violated");
        producer.join().unwrap();
        assert_eq!(q.pop(), Some(20));
        assert_eq!(q.pop(), None);
    });
}

/// The accept/drain race: a client races `try_accept` against the
/// dispatcher's `begin_drain` + quiescence poll. If the dispatcher ever
/// observes quiescence, the client's request must be either already
/// completed or refused — an accept landing after the dispatcher exits
/// would be a lost request.
#[test]
fn drain_never_strands_an_accepted_request() {
    loom::model(|| {
        let gate = Arc::new(DrainGate::new());
        let exited = Arc::new(AtomicUsize::new(0));
        let (g, e) = (Arc::clone(&gate), Arc::clone(&exited));
        let client = thread::spawn(move || {
            if g.try_accept() {
                // The dispatcher cannot have exited: quiescence requires
                // accepted == completed, and our complete() is pending.
                assert_eq!(
                    e.load(Ordering::SeqCst),
                    0,
                    "dispatcher exited with an accepted, uncompleted request"
                );
                g.complete();
                true
            } else {
                false
            }
        });
        gate.begin_drain();
        if gate.quiescent() {
            // Dispatcher would break its loop here.
            exited.store(1, Ordering::SeqCst);
        }
        let accepted = client.join().unwrap();
        // Whatever interleaving ran, the gate must settle quiescent:
        // the request was either refused or accepted-and-completed.
        assert!(gate.quiescent(), "accepted={accepted}, gate not quiescent");
    });
}

/// A retracted accept (queue-full shed path) must not hold quiescence
/// open: the dispatcher never waits for a request that was handed back.
#[test]
fn drain_retract_releases_quiescence() {
    loom::model(|| {
        let gate = Arc::new(DrainGate::new());
        let g = Arc::clone(&gate);
        let client = thread::spawn(move || {
            if g.try_accept() {
                // Simulate the enqueue failing: hand the slot back.
                g.retract();
            }
        });
        gate.begin_drain();
        client.join().unwrap();
        assert!(
            gate.quiescent(),
            "retracted accept still counted against quiescence"
        );
    });
}

/// Two submitters race one tenant's burst-1 bucket: the token must be
/// spent exactly once. A lost update inside the bucket map (or an
/// admit sneaking down the passthrough fast path despite the finite
/// default) would let both racing requests through.
#[test]
fn admission_burst_token_spent_exactly_once() {
    loom::model(|| {
        let t0 = std::time::Instant::now();
        let adm = Arc::new(Admission::new(
            RatePolicy::per_second(0.0, 1.0),
            RatePolicy::unlimited(),
            RatePolicy::unlimited(),
        ));
        let a2 = Arc::clone(&adm);
        let t = thread::spawn(move || a2.admit(1, AdmissionClass::Exact, t0).is_ok());
        let mine = adm.admit(1, AdmissionClass::Exact, t0).is_ok();
        let theirs = t.join().unwrap();
        assert!(
            mine ^ theirs,
            "burst-1 bucket admitted {} of 2 racing submits",
            usize::from(mine) + usize::from(theirs)
        );
    });
}

/// The passthrough flip: `set_policy` stores the flag with `Release`
/// *while still holding* the bucket lock, so the installer's own next
/// admit — and, after a join, anyone else's — must consult the bucket
/// it just installed. A racing admit may still ride the old fast path,
/// but it can never observe `passthrough == false` without also seeing
/// the bucket.
#[test]
fn admission_policy_install_is_immediately_enforced() {
    loom::model(|| {
        let t0 = std::time::Instant::now();
        let adm = Arc::new(Admission::new(
            RatePolicy::unlimited(),
            RatePolicy::unlimited(),
            RatePolicy::unlimited(),
        ));
        let a2 = Arc::clone(&adm);
        // A concurrent admit may win or lose the race with the install;
        // either way it must not panic or corrupt the map.
        let racer = thread::spawn(move || a2.admit(2, AdmissionClass::Exact, t0).is_ok());
        adm.set_policy(2, RatePolicy::per_second(0.0, 0.0));
        assert!(
            adm.admit(2, AdmissionClass::Exact, t0).is_err(),
            "installer's own admit bypassed the empty bucket it installed"
        );
        racer.join().unwrap();
        assert!(
            adm.admit(2, AdmissionClass::Exact, t0).is_err(),
            "post-join admit bypassed the installed policy"
        );
    });
}

/// The epoch/snapshot handoff behind online writes: a reader's
/// `load()` returns a *pair* — the epoch must name exactly the
/// snapshot it came with, under any interleaving with a publishing
/// writer. Here each update publishes `(v, v)` where `v` equals the
/// number of updates applied, so a consistent load has
/// `snap.0 == snap.1 == epoch`; a torn pair (epoch from one
/// publication, Arc from another) would break the equality.
#[test]
fn epoch_cell_pairs_are_never_torn() {
    loom::model(|| {
        let cell = Arc::new(EpochCell::new((0u64, 0u64)));
        let c2 = Arc::clone(&cell);
        let writer = thread::spawn(move || {
            for v in 1..=2u64 {
                c2.update(|_| ((v, v), ()));
            }
        });
        let (snap, epoch) = cell.load();
        assert_eq!(snap.0, snap.1, "reader saw a torn snapshot: {snap:?}");
        assert_eq!(snap.0, epoch, "epoch does not name the loaded snapshot");
        writer.join().unwrap();
        let (fin, e) = cell.load();
        assert_eq!(*fin, (2, 2), "a publication was lost");
        assert_eq!(e, 2);
    });
}

/// Racing updaters serialise: both read-modify-write publications land,
/// none is lost, and the final epoch counts both.
#[test]
fn epoch_cell_racing_updates_both_land() {
    loom::model(|| {
        let cell = Arc::new(EpochCell::new(0u64));
        let c2 = Arc::clone(&cell);
        let t = thread::spawn(move || c2.update(|v| (v + 1, ())));
        cell.update(|v| (v + 1, ()));
        t.join().unwrap();
        let (snap, epoch) = cell.load();
        assert_eq!(*snap, 2, "an update was lost to the race");
        assert_eq!(epoch, 2);
    });
}

/// The per-shard dispatch topology under drain: one job sits on
/// dispatcher 0's ring while both dispatchers run the real exit
/// protocol (drain own ring, steal from the peer, exit only on
/// `quiescent() && all-empty`). The job must execute exactly once —
/// whether its owner or the stealing peer gets it — and neither
/// dispatcher may exit while it is still queued or in flight.
///
/// This model's idle loop polls instead of parking (`yield_now` is a
/// free scheduling point; the doorbell models below park), and an
/// unbounded poll under DFS admits infinitely long
/// executions — the scheduler may lawfully starve the peer forever, so
/// the naive model diverges (observed past 30 GiB of schedule state).
/// Each dispatcher therefore gets a *round budget*: enough scan rounds
/// to guarantee the job is popped on every schedule (each dispatcher's
/// first round checks both rings), with the clean-exit safety assert —
/// quiescence implies the job already completed — checked on the exit
/// path itself. Budget exhaustion models scheduler starvation, not a
/// protocol exit, so it carries no assert.
#[test]
fn work_stealing_drain_executes_every_job_exactly_once() {
    loom::model(|| {
        let queues = Arc::new([BoundedQueue::new(2), BoundedQueue::new(2)]);
        let gate = Arc::new(DrainGate::new());
        let done = Arc::new(AtomicUsize::new(0));
        assert!(gate.try_accept(), "gate open before drain");
        queues[0].push(7u32).unwrap();
        gate.begin_drain();
        let dispatchers: Vec<_> = (0..2usize)
            .map(|me| {
                let q = Arc::clone(&queues);
                let g = Arc::clone(&gate);
                let d = Arc::clone(&done);
                thread::spawn(move || {
                    for _ in 0..4 {
                        let job = q[me].pop().or_else(|| q[(me + 1) % 2].pop());
                        if let Some(v) = job {
                            assert_eq!(v, 7, "ring handed back a corrupted job");
                            d.fetch_add(1, Ordering::SeqCst);
                            g.complete();
                        } else if g.quiescent() && q.iter().all(|r| r.is_empty()) {
                            assert_eq!(
                                d.load(Ordering::SeqCst),
                                1,
                                "dispatcher exited with the job still queued or in flight"
                            );
                            return;
                        } else {
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for h in dispatchers {
            h.join().unwrap();
        }
        // Whichever dispatcher won the pop — owner or stealer — the job
        // ran exactly once: both first rounds scan both rings, so it
        // cannot still be queued, and the ring cannot duplicate it.
        assert_eq!(done.load(Ordering::SeqCst), 1, "job executed exactly once");
        assert!(gate.quiescent());
    });
}

/// Two clients race the drain; accepted-but-uncompleted work always
/// blocks quiescence until the matching `complete` lands.
#[test]
fn drain_quiescence_counts_every_accept() {
    loom::model(|| {
        let gate = Arc::new(DrainGate::new());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let g = Arc::clone(&gate);
                thread::spawn(move || {
                    if g.try_accept() {
                        g.complete();
                        1usize
                    } else {
                        0
                    }
                })
            })
            .collect();
        gate.begin_drain();
        let accepted: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(accepted <= 2);
        assert!(gate.quiescent(), "{accepted} accepts, gate not quiescent");
        assert!(!gate.try_accept(), "drained gate accepted new work");
    });
}

/// The fake clock's step per reading in the dispatcher models: a spin
/// reads the clock once to start and once per poll, so it polls once
/// and then its [`SPIN_WINDOW_NS`] has passed.
const SPIN_TICK_NS: u64 = SPIN_WINDOW_NS / 3;

/// The service's dispatcher loop over `u32` jobs, minus batching: pop
/// the own ring, else steal from the peers; run a job by counting it in
/// `done` and completing it at the gate; exit once the gate is
/// quiescent with every ring empty, waking the parked peers; otherwise,
/// with `spin`, spin through the real [`Doorbells::spin`], then park on
/// bell `me` through the real [`Doorbells::wait`] (untimed: a timed
/// park is untimed under loom anyway). The dispatcher's clock is fake
/// and advances [`SPIN_TICK_NS`] per reading, so a spin gives up after
/// one poll unless it finds work. The park models run without `spin`:
/// they check the park protocol alone, and with it the racing-drain
/// model outgrows loom's default execution cap. With `stop_after`,
/// return after that many jobs (for models without a drain). Returns
/// the jobs this dispatcher ran.
fn dispatcher(
    me: usize,
    queues: &[BoundedQueue<u32>],
    gate: &DrainGate,
    bells: &Doorbells,
    done: &AtomicUsize,
    spin: bool,
    stop_after: Option<usize>,
) -> usize {
    let n = queues.len();
    let mut ran = 0;
    let mut clock = 0;
    let mut last_batch = 0;
    loop {
        if let Some(v) = (0..n).find_map(|off| queues[(me + off) % n].pop()) {
            assert_eq!(v, 7, "ring handed back a corrupted job");
            done.fetch_add(1, Ordering::SeqCst);
            gate.complete();
            ran += 1;
            last_batch = clock;
            if stop_after == Some(ran) {
                return ran;
            }
        } else if gate.quiescent() && queues.iter().all(BoundedQueue::is_empty) {
            bells.ring_all();
            return ran;
        } else {
            let tick = || {
                clock += SPIN_TICK_NS;
                clock
            };
            if !spin || bells.spin(queues, gate, last_batch, 0, tick) != SpinEnd::Work {
                bells.wait(me, queues, gate, None);
            }
        }
    }
}

/// The submit path: accept at the gate, push onto `owner`'s ring and
/// ring its bell; a full ring retracts the accept and rings every bell.
/// Returns whether the job was accepted and queued.
fn submit(queues: &[BoundedQueue<u32>], gate: &DrainGate, bells: &Doorbells, owner: usize) -> bool {
    if !gate.try_accept() {
        return false;
    }
    if queues[owner].push(7).is_err() {
        gate.retract();
        bells.ring_all();
        return false;
    }
    bells.ring(owner);
    true
}

/// The caller-run path: accept at the gate, answer the job on this
/// thread by counting it in `done` and completing it at the gate, then
/// ring every bell if the service is draining
/// ([`Doorbells::ring_all_if_draining`]). Returns whether the job was
/// accepted.
fn caller_run(gate: &DrainGate, bells: &Doorbells, done: &AtomicUsize) -> bool {
    if !gate.try_accept() {
        return false;
    }
    done.fetch_add(1, Ordering::SeqCst);
    gate.complete();
    bells.ring_all_if_draining(gate);
    true
}

/// An enqueue racing the dispatcher's publish / re-check / park: in
/// every interleaving the job runs. If the submitter's ring missed a
/// dispatcher that then parked, nothing else would wake it (there is no
/// drain here) and the final join would deadlock.
#[test]
fn doorbell_enqueue_racing_park_never_strands_a_job() {
    loom::model(|| {
        let queues = Arc::new([BoundedQueue::new(2)]);
        let gate = Arc::new(DrainGate::new());
        let bells = Arc::new(Doorbells::new(1));
        let done = Arc::new(AtomicUsize::new(0));
        let d = {
            let (q, g, b, n) = (
                Arc::clone(&queues),
                Arc::clone(&gate),
                Arc::clone(&bells),
                Arc::clone(&done),
            );
            thread::spawn(move || dispatcher(0, &*q, &g, &b, &n, false, Some(1)))
        };
        bells.register(0, d.thread().clone());
        assert!(submit(&*queues, &gate, &bells, 0), "open gate, empty ring");
        assert_eq!(d.join().unwrap(), 1, "the dispatcher ran the job");
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert!(queues[0].is_empty());
    });
}

/// `begin_drain` with parked dispatchers: a client races the drain
/// while both dispatchers run the full loop, parking whenever they are
/// idle. The drain must still terminate (every dispatcher exits, or the
/// joins deadlock) and every accepted request must have run exactly
/// once.
#[test]
fn doorbell_drain_with_parked_dispatchers_resolves_every_ticket() {
    loom::model(|| {
        let queues = Arc::new([BoundedQueue::new(2), BoundedQueue::new(2)]);
        let gate = Arc::new(DrainGate::new());
        let bells = Arc::new(Doorbells::new(2));
        let done = Arc::new(AtomicUsize::new(0));
        let dispatchers: Vec<_> = (0..2usize)
            .map(|me| {
                let (q, g, b, n) = (
                    Arc::clone(&queues),
                    Arc::clone(&gate),
                    Arc::clone(&bells),
                    Arc::clone(&done),
                );
                let d = thread::spawn(move || dispatcher(me, &*q, &g, &b, &n, false, None));
                bells.register(me, d.thread().clone());
                d
            })
            .collect();
        let client = {
            let (q, g, b) = (Arc::clone(&queues), Arc::clone(&gate), Arc::clone(&bells));
            thread::spawn(move || submit(&*q, &g, &b, 0))
        };
        gate.begin_drain();
        bells.ring_all();
        let accepted = usize::from(client.join().unwrap());
        let ran: usize = dispatchers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(ran, accepted, "every accepted request ran exactly once");
        assert_eq!(done.load(Ordering::SeqCst), accepted);
        assert!(gate.quiescent());
        assert!(queues.iter().all(BoundedQueue::is_empty));
    });
}

/// A retracted accept during a drain: the client was accepted before
/// the drain, but the ring is full, so it hands the accept back. That
/// retraction can be what makes the gate quiescent, so it must wake a
/// dispatcher that parked waiting for it, or the drain never ends.
#[test]
fn doorbell_retract_during_drain_wakes_the_parked_dispatcher() {
    loom::model(|| {
        let queues = Arc::new([BoundedQueue::new(2)]);
        let gate = Arc::new(DrainGate::new());
        let bells = Arc::new(Doorbells::new(1));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..2 {
            assert!(submit(&*queues, &gate, &bells, 0), "fills the ring");
        }
        let d = {
            let (q, g, b, n) = (
                Arc::clone(&queues),
                Arc::clone(&gate),
                Arc::clone(&bells),
                Arc::clone(&done),
            );
            thread::spawn(move || dispatcher(0, &*q, &g, &b, &n, false, None))
        };
        bells.register(0, d.thread().clone());
        let client = {
            let (q, g, b) = (Arc::clone(&queues), Arc::clone(&gate), Arc::clone(&bells));
            thread::spawn(move || submit(&*q, &g, &b, 0))
        };
        gate.begin_drain();
        bells.ring_all();
        let accepted = 2 + usize::from(client.join().unwrap());
        assert_eq!(d.join().unwrap(), accepted, "every accepted request ran");
        assert!(gate.quiescent());
    });
}

/// A job pushed to a busy owner's ring wakes a parked peer. Here the
/// main thread is dispatcher 0, busy for the whole model (it never
/// parks, so its bell never reads `sleeping`); dispatcher 1 idles and
/// parks. The ring for queue 0 must reach dispatcher 1, which steals
/// and runs the job exactly once; a ring that only tried the owner
/// would leave dispatcher 1 parked and the join deadlocked.
#[test]
fn doorbell_busy_owner_wakes_a_parked_peer_to_steal() {
    loom::model(|| {
        let queues = Arc::new([BoundedQueue::new(2), BoundedQueue::new(2)]);
        let gate = Arc::new(DrainGate::new());
        let bells = Arc::new(Doorbells::new(2));
        let done = Arc::new(AtomicUsize::new(0));
        let peer = {
            let (q, g, b, n) = (
                Arc::clone(&queues),
                Arc::clone(&gate),
                Arc::clone(&bells),
                Arc::clone(&done),
            );
            thread::spawn(move || dispatcher(1, &*q, &g, &b, &n, false, Some(1)))
        };
        bells.register(1, peer.thread().clone());
        assert!(submit(&*queues, &gate, &bells, 0), "open gate, empty ring");
        assert_eq!(peer.join().unwrap(), 1, "the peer stole and ran the job");
        assert_eq!(done.load(Ordering::SeqCst), 1, "ran exactly once");
        assert!(queues.iter().all(BoundedQueue::is_empty));
    });
}

/// The spinner hand-off. Both dispatchers run the full loop: one wins
/// the spinner token, polls once, gives up and parks; the other loses
/// the swap and parks, or spins in its turn. The job was accepted
/// before the drain began and is pushed after it, onto dispatcher 1's
/// ring, so a spinning dispatcher 0 finds it only by polling every
/// ring, and its ring is skipped whenever it finds the token held
/// (under loom the heartbeat always reads fresh). A skipped ring that
/// the spinner's poll and its `wait` re-check both missed leaves every
/// dispatcher parked and the joins deadlocked, which the model checker
/// reports; otherwise the drain ends with the job run exactly once.
/// Accepting before the drain keeps the model small enough to explore
/// in full.
#[test]
fn doorbell_spinner_hand_off_never_strands_a_job() {
    loom::model(|| {
        let queues = Arc::new([BoundedQueue::new(2), BoundedQueue::new(2)]);
        let gate = Arc::new(DrainGate::new());
        let bells = Arc::new(Doorbells::new(2));
        let done = Arc::new(AtomicUsize::new(0));
        assert!(gate.try_accept(), "gate open before drain");
        gate.begin_drain();
        let dispatchers: Vec<_> = (0..2usize)
            .map(|me| {
                let (q, g, b, n) = (
                    Arc::clone(&queues),
                    Arc::clone(&gate),
                    Arc::clone(&bells),
                    Arc::clone(&done),
                );
                let d = thread::spawn(move || dispatcher(me, &*q, &g, &b, &n, true, None));
                bells.register(me, d.thread().clone());
                d
            })
            .collect();
        queues[1].push(7).unwrap();
        bells.ring(1);
        let ran: usize = dispatchers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(ran, 1, "the job ran exactly once");
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert!(gate.quiescent());
    });
}

/// [`reply`]: a sender thread sends or drops its half while the
/// receiver is parked in `wait` or races it with a `try_wait` poll
/// first. The answer is delivered exactly once (a poll that took it
/// leaves `wait` returning `None`), a dropped sender resolves to `None`,
/// and a parked waiter is always unparked: a `close` that unparks
/// before it publishes, or skips the unpark, leaves the receiver parked
/// with nothing to wake it, which the model checker reports as a
/// deadlock.
#[test]
fn reply_slot_resolves_exactly_once() {
    for (answer, poll) in [(true, false), (false, false), (true, true), (false, true)] {
        loom::model(move || {
            let (tx, rx) = reply::slot::<u32>();
            let sender = thread::spawn(move || {
                if answer {
                    tx.send(7);
                } else {
                    drop(tx);
                }
            });
            let polled = if poll { rx.try_wait() } else { None };
            let waited = rx.wait();
            sender.join().unwrap();
            let got: Vec<u32> = polled.into_iter().chain(waited).collect();
            let want: &[u32] = if answer { &[7] } else { &[] };
            assert_eq!(
                got, want,
                "answer {answer}, poll {poll}: delivered exactly once"
            );
        });
    }
}

/// A caller-run racing the drain while the one dispatcher parks with
/// nothing queued: the caller's completion can be the one that makes
/// the drained gate quiescent after the drainer's `ring_all` found no
/// sleeper, so the caller must ring. A caller-run that skips the ring,
/// or checks the drain bit before it completes, leaves the dispatcher
/// parked and the join deadlocked, which the model checker reports.
#[test]
fn caller_run_completion_during_drain_wakes_the_parked_dispatcher() {
    loom::model(|| {
        let queues = Arc::new([BoundedQueue::new(2)]);
        let gate = Arc::new(DrainGate::new());
        let bells = Arc::new(Doorbells::new(1));
        let done = Arc::new(AtomicUsize::new(0));
        let d = {
            let (q, g, b, n) = (
                Arc::clone(&queues),
                Arc::clone(&gate),
                Arc::clone(&bells),
                Arc::clone(&done),
            );
            thread::spawn(move || dispatcher(0, &*q, &g, &b, &n, false, None))
        };
        bells.register(0, d.thread().clone());
        let client = {
            let (g, b, n) = (Arc::clone(&gate), Arc::clone(&bells), Arc::clone(&done));
            thread::spawn(move || caller_run(&g, &b, &n))
        };
        gate.begin_drain();
        bells.ring_all();
        let accepted = usize::from(client.join().unwrap());
        assert_eq!(d.join().unwrap(), 0, "the dispatcher ran nothing");
        assert_eq!(done.load(Ordering::SeqCst), accepted);
        assert!(gate.quiescent());
    });
}

/// A read accepted after a write's ack loads the written snapshot. A
/// dispatcher applies one write to an [`EpochCell`], completes it and
/// acks it through the write's reply slot, then applies a second write.
/// The client waits for the ack, accepts a read at the gate and loads
/// the cell as a caller-run does: it may see the second write, never
/// the value before the first, and its epoch names what it loaded.
#[test]
fn caller_run_after_a_write_ack_loads_the_written_value() {
    loom::model(|| {
        let cell = Arc::new(EpochCell::new(0u64));
        let gate = Arc::new(DrainGate::new());
        let (tx, rx) = reply::slot::<()>();
        assert!(gate.try_accept(), "the first write is accepted");
        let dispatcher = {
            let (c, g) = (Arc::clone(&cell), Arc::clone(&gate));
            thread::spawn(move || {
                c.update(|_| (1, ()));
                g.complete();
                tx.send(());
                c.update(|_| (2, ()));
            })
        };
        rx.wait().expect("the write is acked");
        assert!(gate.try_accept(), "the read is accepted");
        let (snap, epoch) = cell.load();
        assert!(*snap >= 1, "a read after the ack missed the write");
        assert_eq!(*snap, epoch, "the epoch names the loaded snapshot");
        gate.complete();
        dispatcher.join().unwrap();
    });
}
