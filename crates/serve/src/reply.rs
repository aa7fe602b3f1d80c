//! One-shot reply slots: how a dispatcher hands one answer to the
//! client that submitted the request.
//!
//! [`slot`] returns the two halves of one shared cell: a façade
//! `Mutex` over the value, a `closed` flag and the handle of a waiter
//! that has registered. The lifecycle is one round trip:
//!
//! ```text
//!  dispatcher (Sender::send / drop)       client (Receiver::wait)
//!  lock                                   lock
//!  value = Some(v); closed = true         value? → return it
//!  take waiter                            closed? → return None
//!  unlock                                 waiter = current(); unlock
//!  unpark the waiter, if one registered   park, then re-check
//! ```
//!
//! The lock orders the two sides: either the client's check runs first
//! and its registration is what the sender takes and unparks, or the
//! sender's publication runs first and the check sees it. A client that
//! only polls ([`Receiver::try_wait`]) never registers, so answering it
//! costs the dispatcher no wake syscall. Dropping a [`Sender`]
//! unanswered closes the slot the same way, so [`Receiver::wait`]
//! returns `None` (a deadline-shed query) instead of hanging.
//!
//! A slot is one allocation per request, where a std channel
//! allocates its shared counter at creation and a 31-message block on
//! the first send. Built on the crate's sync façade, it is visible to
//! the loom models (`tests/loom.rs`: `reply_slot_resolves_exactly_once`)
//! and to `ferrotcam analyze`.

use crate::sync::{current, park, Mutex, Thread};
use std::sync::Arc;

/// The shared state of one slot.
#[derive(Debug)]
struct State<T> {
    /// The answer, until the receiver takes it.
    value: Option<T>,
    /// The sender is gone: it sent, or was dropped unanswered.
    closed: bool,
    /// The receiver blocked in [`Receiver::wait`], to unpark on close.
    waiter: Option<Thread>,
}

/// A fresh slot: the dispatcher's half and the client's half.
#[must_use]
pub fn slot<T>() -> (Sender<T>, Receiver<T>) {
    let state = Arc::new(Mutex::new(
        "serve.reply.slot",
        State {
            value: None,
            closed: false,
            waiter: None,
        },
    ));
    (
        Sender {
            state: Some(Arc::clone(&state)),
        },
        Receiver { state },
    )
}

/// The answering half. Dropping it unanswered closes the slot.
#[derive(Debug)]
pub struct Sender<T> {
    /// `None` once [`Sender::send`] has closed the slot.
    state: Option<Arc<Mutex<State<T>>>>,
}

impl<T> Sender<T> {
    /// Publish `value` and wake the receiver if it is blocked in
    /// [`Receiver::wait`]. A receiver that was dropped first is fine:
    /// the value is dropped with the slot.
    pub fn send(mut self, value: T) {
        if let Some(state) = self.state.take() {
            close(&state, Some(value));
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            close(&state, None);
        }
    }
}

/// Close the slot with `value` (`None`: unanswered), then unpark a
/// registered waiter. The unpark runs after the unlock, so the woken
/// receiver does not block on the lock it needs.
fn close<T>(state: &Mutex<State<T>>, value: Option<T>) {
    let waiter = {
        let mut s = state.lock();
        s.value = value;
        s.closed = true;
        s.waiter.take()
    };
    if let Some(w) = waiter {
        w.unpark();
    }
}

/// The waiting half.
#[derive(Debug)]
pub struct Receiver<T> {
    state: Arc<Mutex<State<T>>>,
}

impl<T> Receiver<T> {
    /// Block until the slot closes: `Some` if it was answered, `None`
    /// if the sender was dropped unanswered.
    #[must_use]
    pub fn wait(self) -> Option<T> {
        loop {
            {
                let mut s = self.state.lock();
                if s.value.is_some() || s.closed {
                    return s.value.take();
                }
                s.waiter = Some(current());
            }
            // A wake-up without the close (a spurious one, or a token
            // left by an earlier unpark of this thread) re-checks.
            park();
        }
    }

    /// Non-blocking poll: the answer the first time it is there, `None`
    /// before and after.
    #[must_use]
    pub fn try_wait(&self) -> Option<T> {
        self.state.lock().value.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn send_before_wait_returns_the_value() {
        let (tx, rx) = slot();
        tx.send(7u32);
        assert_eq!(rx.wait(), Some(7));
    }

    #[test]
    fn try_wait_yields_the_value_once() {
        let (tx, rx) = slot();
        assert_eq!(rx.try_wait(), None);
        tx.send(String::from("answer"));
        assert_eq!(rx.try_wait().as_deref(), Some("answer"));
        assert_eq!(rx.try_wait(), None);
        assert_eq!(rx.wait(), None, "a taken answer closes to None");
    }

    #[test]
    fn dropped_sender_resolves_to_none() {
        let (tx, rx) = slot::<u32>();
        drop(tx);
        assert_eq!(rx.try_wait(), None);
        assert_eq!(rx.wait(), None);
    }

    #[test]
    fn dropped_receiver_does_not_block_the_sender() {
        let (tx, rx) = slot();
        drop(rx);
        tx.send(vec![1u8, 2, 3]);
    }

    #[test]
    fn parked_waiter_is_woken_by_send_and_by_drop() {
        for answer in [true, false] {
            let (tx, rx) = slot::<u64>();
            let waiter = std::thread::spawn(move || rx.wait());
            std::thread::sleep(Duration::from_millis(5));
            if answer {
                tx.send(42);
            } else {
                drop(tx);
            }
            let got = waiter.join().expect("waiter thread");
            assert_eq!(got, answer.then_some(42));
        }
    }
}
