//! Runtime lock-order tracking: the dynamic half of deadlock freedom.
//!
//! Every mutex in this workspace belongs to a named **lock class**, and
//! the classes form one canonical acquisition order, declared below for
//! detlint's R6 `lock_order` pass and encoded as [`LockRank`] constants
//! for this module. A thread may only acquire a lock whose rank is
//! strictly greater than every lock it already holds — so any execution
//! that completes under the tracker is a witness that the static
//! acquisition graph detlint builds is acyclic along that path, and any
//! divergence between the declared order and real behavior panics the
//! test suite instead of deadlocking it.
//!
// detlint::lock_order(templates < memo)
//!
//! The order reads outermost-to-innermost. Both classes belong to the
//! cost oracle: `templates` is its prepared-template registry, held
//! across plan construction, and `memo` holds its memo entries and
//! string interner, taken once per batch to build keys and look them up
//! and once to insert the misses. No code takes one while it holds the
//! other; the declared order is what keeps it so. Work handed to a
//! worker thread (a scheduler task's claimed templates, an
//! amplification lane) moves to it by value through
//! `bayesopt::parallel::parallel_map_owned`, so it needs no lock.
//!
//! [`OrderedMutex`] wraps `parking_lot::Mutex` and is free in release
//! builds (no tracking state, `lock()` forwards directly). In debug
//! builds every acquisition checks a thread-local stack of held ranks;
//! the whole test suite — chaos, crash-resume, thread matrices —
//! doubles as a validation harness for the declared order.

use parking_lot::{Mutex, MutexGuard};

/// A lock class: its rank in the canonical acquisition order and its
/// name (as used in the `detlint::lock_order` declaration above). Read
/// by the debug tracker only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(debug_assertions), allow(dead_code))]
pub struct LockRank {
    rank: u16,
    name: &'static str,
}

impl LockRank {
    const fn new(rank: u16, name: &'static str) -> LockRank {
        LockRank { rank, name }
    }
}

/// Oracle prepared-template registry (held across plan construction).
pub const TEMPLATES: LockRank = LockRank::new(10, "templates");
/// Oracle memo: entries and string interner (taken once per batch
/// phase).
pub const MEMO: LockRank = LockRank::new(20, "memo");

/// The canonical order, for diagnostics (read by the debug tracker;
/// release builds compile the tracker out).
#[cfg_attr(not(debug_assertions), allow(dead_code))]
const DECLARED: &str = "templates < memo";

#[cfg(debug_assertions)]
mod tracker {
    use super::DECLARED;
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// Locks currently held by this thread: `(rank, name, token)`.
        /// Guards can drop in any order, so entries are removed by token,
        /// not popped.
        static HELD: RefCell<Vec<(u16, &'static str, u64)>> =
            const { RefCell::new(Vec::new()) };
        static NEXT_TOKEN: Cell<u64> = const { Cell::new(0) };
    }

    /// Record an acquisition; panics if any held lock's rank is not
    /// strictly below `rank` (equal ranks count as violations too —
    /// same-class nesting, e.g. two oracles' memos at once, is how
    /// symmetric deadlocks start).
    pub fn acquire(rank: u16, name: &'static str) -> u64 {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            for &(held_rank, held_name, _) in held.iter() {
                assert!(
                    held_rank < rank,
                    "lock-order violation: acquiring `{name}` (rank {rank}) while \
                     holding `{held_name}` (rank {held_rank}); declared order: {DECLARED}",
                );
            }
            let token = NEXT_TOKEN.with(|next| {
                let t = next.get();
                next.set(t + 1);
                t
            });
            held.push((rank, name, token));
            token
        })
    }

    /// Forget the acquisition identified by `token`.
    pub fn release(token: u64) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&(_, _, t)| t == token) {
                held.remove(pos);
            }
        });
    }
}

/// A [`parking_lot::Mutex`] bound to a [`LockRank`]. Release builds add
/// nothing over the raw mutex; debug builds assert the canonical
/// acquisition order on every `lock()`.
#[derive(Debug)]
pub struct OrderedMutex<T> {
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    rank: LockRank,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    pub const fn new(rank: LockRank, value: T) -> OrderedMutex<T> {
        OrderedMutex { rank, inner: Mutex::new(value) }
    }

    /// Acquire the lock. In debug builds, panics if this thread already
    /// holds a lock of equal or greater rank.
    pub fn lock(&self) -> OrderedGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = tracker::acquire(self.rank.rank, self.rank.name);
        OrderedGuard {
            guard: self.inner.lock(),
            #[cfg(debug_assertions)]
            token,
        }
    }
}

/// RAII guard for [`OrderedMutex`]; unregisters the acquisition on drop.
pub struct OrderedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    token: u64,
}

impl<T> std::ops::Deref for OrderedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for OrderedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for OrderedGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        tracker::release(self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The deliberate violations come first. With two classes, the
    // reversal below and the in-order nestings after it close the cycle
    // `memo -> templates -> memo` in detlint's static graph; detlint
    // reports a cycle at its earliest edge site, so it lands on the
    // reversal's own line, where it is audited with the reversal.

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn out_of_order_nesting_trips_the_tracker() {
        let outer = OrderedMutex::new(MEMO, ());
        let inner = OrderedMutex::new(TEMPLATES, ());
        let _held = outer.lock();
        // detlint::allow(lock_order): deliberate reversal; the should_panic expectation proves the runtime tracker rejects it
        // detlint::allow(lock_order): the cycle memo -> templates -> memo that this deliberate reversal closes with the in-order tests below; test-only
        let _violation = inner.lock(); // templates after memo
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn same_rank_nesting_trips_the_tracker() {
        let a = OrderedMutex::new(MEMO, ());
        let b = OrderedMutex::new(MEMO, ());
        let _held = a.lock();
        // detlint::allow(lock_order): deliberate same-class nesting; the should_panic expectation proves the runtime tracker rejects it
        let _violation = b.lock(); // two memos at once
    }

    #[test]
    fn in_order_nesting_is_allowed() {
        let outer = OrderedMutex::new(TEMPLATES, 1u32);
        let inner = OrderedMutex::new(MEMO, 2u32);
        let a = outer.lock();
        let b = inner.lock();
        assert_eq!(*a + *b, 3);
    }

    #[test]
    fn sequential_reacquisition_is_allowed() {
        let m = OrderedMutex::new(MEMO, 0u32);
        *m.lock() += 1;
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn guards_may_drop_out_of_order() {
        let a = OrderedMutex::new(TEMPLATES, ());
        let b = OrderedMutex::new(MEMO, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // outer released first: legal, tracker must not corrupt
        drop(gb);
        // Both free again.
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    fn other_threads_are_independent() {
        let outer = OrderedMutex::new(MEMO, ());
        let _held = outer.lock();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // This thread holds nothing: acquiring a lower rank is fine.
                let inner = OrderedMutex::new(TEMPLATES, ());
                // detlint::allow(lock_order): acquired on a freshly spawned thread that holds nothing; order is per-thread and the static pass cannot see thread boundaries
                let _g = inner.lock();
            });
        });
    }
}
