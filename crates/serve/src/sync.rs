//! Synchronisation façade: `std::sync` in production builds, the loom
//! model checker's shimmed equivalents under `RUSTFLAGS="--cfg loom"`.
//!
//! Every concurrency primitive the crate touches is imported from here
//! — [`crate::queue`], [`crate::drain`], [`crate::doorbell`],
//! [`crate::reply`], [`crate::admission`] and [`crate::metrics`] alike
//! — so the exact same algorithm source is compiled against both
//! substrates: the real one in production and the
//! exhaustively-scheduled one in the `tests/loom.rs` models. The
//! `ferrotcam analyze` façade pass (`facade-bypass` rule) denies any
//! direct `std::sync` atomic, lock or channel import elsewhere in this
//! crate, so the "loom-modelable by construction" property is
//! machine-checked, not a convention.
//!
//! # Named mutexes and the runtime lock-order shadow
//!
//! [`Mutex`] here is a thin wrapper that requires a `&'static` name at
//! construction. In production release builds it compiles down to the
//! raw `std::sync::Mutex`; under `cfg(debug_assertions)` (the tier-1
//! `cargo test` profile, and Miri) every acquisition also feeds a
//! process-global **lock-acquisition-order graph**: acquiring `B` while
//! holding `A` records the edge `A → B`, and an acquisition that would
//! close a cycle panics immediately, naming both lock sites and the
//! established path. This is the dynamic validator of the *static*
//! lock-order pass in `crates/analysis` (`lock-order-cycle` rule): the
//! analyzer proves the approximation over all source paths, the shadow
//! catches anything the approximation missed on real executions.
//!
//! Lock identity is the name, not the address, so a pool of structurally
//! identical locks (e.g. the per-slot queue mutexes) is one node in the
//! graph; re-acquiring the *same* name never records a self-edge (slot
//! locks of one queue are never nested).
//!
//! Poisoning: [`Mutex::lock`] panics on a poisoned lock instead of
//! returning `Result`. A poisoned serve lock means another thread
//! panicked mid-update — propagating the panic is exactly what every
//! call site did with `.expect(...)` before, and the unwrapped guard
//! keeps the hot paths free of `unwrap`/`expect` (the `hot-path-unwrap`
//! analyzer rule).

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Park/unpark and the spinner's yield, for [`crate::doorbell`] and
/// [`crate::reply`]: the model checker's versions under loom, where a
/// lost wakeup leaves a parked thread that nothing can unpark and is
/// reported as a deadlock, and a yield is a free scheduling point.
#[cfg(loom)]
pub(crate) use loom::thread::{current, park, yield_now, Thread};

#[cfg(not(loom))]
pub(crate) use std::thread::{current, park, park_timeout, yield_now, Thread};

/// A timed park is an untimed one under loom: the model checker owns
/// time, and a protocol that needed the timeout to make progress would
/// then deadlock instead of passing.
#[cfg(loom)]
pub(crate) fn park_timeout(_: std::time::Duration) {
    loom::thread::park();
}

/// The doorbells' set-once thread handles. The std cell under loom too:
/// each is set before any other thread reads it, so the model checker
/// has no interleaving to explore there.
pub(crate) use std::sync::OnceLock;

#[cfg(loom)]
use loom::sync::Mutex as RawMutex;
#[cfg(loom)]
use loom::sync::MutexGuard as RawGuard;

#[cfg(not(loom))]
use std::sync::Mutex as RawMutex;
#[cfg(not(loom))]
use std::sync::MutexGuard as RawGuard;

/// A named mutex: `std::sync::Mutex` (or the loom shim) plus membership
/// in the debug-build lock-order shadow. See the module docs.
pub(crate) struct Mutex<T> {
    name: &'static str,
    inner: RawMutex<T>,
}

impl<T> Mutex<T> {
    /// New unlocked mutex named `name`. The name is the lock's identity
    /// in the order graph and in cycle panics; give every distinct lock
    /// *role* its own name and share one name across a homogeneous pool.
    pub(crate) fn new(name: &'static str, value: T) -> Self {
        Self {
            name,
            inner: RawMutex::new(value),
        }
    }

    /// Acquire, recording the acquisition edge in the debug shadow.
    ///
    /// # Panics
    /// Panics if the lock is poisoned (a thread panicked while holding
    /// it — the panic is propagated, matching the previous call sites'
    /// `.expect`) or if this acquisition closes a cycle in the global
    /// lock-order graph (a deadlock-in-waiting; the panic names both
    /// locks and the established path).
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        order::on_acquire(self.name);
        match self.inner.lock() {
            Ok(g) => MutexGuard {
                name: self.name,
                inner: g,
            },
            Err(poisoned) => {
                order::on_release(self.name);
                drop(poisoned);
                panic!("serve lock '{}' poisoned", self.name)
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex")
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard returned by [`Mutex::lock`]; pops the lock from the holder's
/// shadow stack on drop.
#[derive(Debug)]
pub(crate) struct MutexGuard<'a, T> {
    name: &'static str,
    inner: RawGuard<'a, T>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        order::on_release(self.name);
    }
}

/// The lock-order shadow. Compiled to no-ops in release builds and
/// under loom (where the model checker owns scheduling); in debug
/// builds it maintains a global order graph and a per-thread stack of
/// held lock names.
#[cfg(all(debug_assertions, not(loom)))]
mod order {
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    use std::sync::{Mutex, OnceLock};

    /// Directed acquired-before edges: `graph[a]` holds every lock
    /// acquired at least once while `a` was held.
    type Graph = HashMap<&'static str, HashSet<&'static str>>;

    fn graph() -> &'static Mutex<Graph> {
        static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(HashMap::new()))
    }

    thread_local! {
        /// Names of the locks this thread currently holds, in
        /// acquisition order.
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    /// Depth-first path from `from` to `to` along recorded edges, used
    /// both as the cycle test and to render the offending chain.
    fn path(g: &Graph, from: &'static str, to: &'static str) -> Option<Vec<&'static str>> {
        let mut stack = vec![vec![from]];
        let mut seen = HashSet::new();
        while let Some(p) = stack.pop() {
            let last = *p.last().expect("non-empty path");
            if last == to {
                return Some(p);
            }
            if !seen.insert(last) {
                continue;
            }
            if let Some(next) = g.get(last) {
                for &n in next {
                    let mut q = p.clone();
                    q.push(n);
                    stack.push(q);
                }
            }
        }
        None
    }

    pub(super) fn on_acquire(name: &'static str) {
        let held: Vec<&'static str> = HELD.with(|h| h.borrow().clone());
        if !held.is_empty() {
            let mut cycle: Option<String> = None;
            {
                let mut g = graph().lock().expect("lock-order graph");
                for &h in &held {
                    if h == name {
                        continue;
                    }
                    // Adding h -> name: a cycle exists iff name already
                    // reaches h. Record the message, release the graph
                    // lock, then panic — a poisoned graph would break
                    // every other test in the process.
                    if let Some(p) = path(&g, name, h) {
                        cycle = Some(format!(
                            "lock-order cycle: acquiring '{name}' while holding '{h}', \
                             but the established order is {}",
                            p.join(" -> ")
                        ));
                        break;
                    }
                    g.entry(h).or_default().insert(name);
                }
            }
            if let Some(msg) = cycle {
                panic!("{msg}");
            }
        }
        HELD.with(|h| h.borrow_mut().push(name));
    }

    pub(super) fn on_release(name: &'static str) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(i) = held.iter().rposition(|&n| n == name) {
                held.remove(i);
            }
        });
    }
}

#[cfg(not(all(debug_assertions, not(loom))))]
mod order {
    pub(super) fn on_acquire(_name: &'static str) {}
    pub(super) fn on_release(_name: &'static str) {}
}

#[cfg(all(test, debug_assertions, not(loom)))]
mod tests {
    use super::Mutex;

    #[test]
    fn consistent_order_is_silent() {
        let a = Mutex::new("test.order.outer", 1);
        let b = Mutex::new("test.order.inner", 2);
        for _ in 0..3 {
            let ga = a.lock();
            let gb = b.lock();
            assert_eq!(*ga + *gb, 3);
        }
        // Same-name re-acquisition (a lock pool) records no self-edge.
        let p1 = Mutex::new("test.order.pool", 0);
        let p2 = Mutex::new("test.order.pool", 0);
        let g1 = p1.lock();
        let g2 = p2.lock();
        drop((g1, g2));
    }

    #[test]
    fn inverted_order_panics_naming_both_locks() {
        let a = Mutex::new("test.cycle.a", ());
        let b = Mutex::new("test.cycle.b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let caught = std::panic::catch_unwind(|| {
            let _gb = b.lock();
            let _ga = a.lock();
        })
        .expect_err("inverted acquisition must panic");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("test.cycle.a"), "panic names lock a: {msg}");
        assert!(msg.contains("test.cycle.b"), "panic names lock b: {msg}");
        assert!(msg.contains("lock-order cycle"), "typed message: {msg}");
    }

    #[test]
    fn transitive_cycle_is_caught() {
        let a = Mutex::new("test.chain.a", ());
        let b = Mutex::new("test.chain.b", ());
        let c = Mutex::new("test.chain.c", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        {
            let _gb = b.lock();
            let _gc = c.lock();
        }
        let caught = std::panic::catch_unwind(|| {
            let _gc = c.lock();
            let _ga = a.lock();
        });
        assert!(caught.is_err(), "a->b->c->a must be rejected");
    }
}
