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
// detlint::lock_order(payloads < templates < interner < prepared_shards < lanes)
//!
//! The order reads outermost-to-innermost. A scheduler task holds its
//! `payloads` lock for the task's whole run — every oracle acquisition
//! the task makes (template registry, interner, memo shards) nests
//! inside it, so `payloads` is the outermost class (the first tracker
//! run caught exactly this: the draft order had it innermost and the BO
//! suite panicked immediately). The template registry is held across
//! plan construction, the interner feeds key construction, the memo
//! shards are taken one at a time per batch phase, and the
//! amplification lanes are true leaves (`Lane::run` costs against the
//! prepared plan directly and never touches an oracle lock).
//!
//! [`OrderedMutex`] wraps `parking_lot::Mutex` and is free in release
//! builds (no tracking state, `lock()` forwards directly). In debug
//! builds every acquisition checks a thread-local stack of held ranks;
//! the whole test suite — chaos, crash-resume, thread matrices —
//! doubles as a validation harness for the declared order.

use parking_lot::{Mutex, MutexGuard};

/// A lock class: its rank in the canonical acquisition order and its
/// name (as used in the `detlint::lock_order` declaration above).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockRank {
    rank: u16,
    name: &'static str,
}

impl LockRank {
    const fn new(rank: u16, name: &'static str) -> LockRank {
        LockRank { rank, name }
    }

    /// Class name (matches the static declaration).
    pub fn name(self) -> &'static str {
        self.name
    }

    /// Position in the canonical order (larger = innermost).
    pub fn rank(self) -> u16 {
        self.rank
    }
}

/// Scheduler task payloads (outermost: held across a task's entire BO
/// run, including every oracle probe the task makes).
pub const PAYLOADS: LockRank = LockRank::new(10, "payloads");
/// Oracle prepared-template registry (held across plan construction).
pub const TEMPLATES: LockRank = LockRank::new(20, "templates");
/// Oracle string interner (feeds binding-key construction).
pub const INTERNER: LockRank = LockRank::new(30, "interner");
/// Memo shards (one at a time per batch phase).
pub const PREPARED_SHARDS: LockRank = LockRank::new(50, "prepared_shards");
/// Amplification lane scratch (leaf; one worker per lane per wave,
/// costing straight against the prepared plan — no oracle locks).
pub const LANES: LockRank = LockRank::new(60, "lanes");

/// The canonical order, for diagnostics (read by the debug tracker;
/// release builds compile the tracker out).
#[cfg_attr(not(debug_assertions), allow(dead_code))]
const DECLARED: &str =
    "payloads < templates < interner < prepared_shards < lanes";

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
    /// same-class nesting, e.g. two memo shards at once, is how
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

    /// This mutex's lock class.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
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

    #[test]
    fn in_order_nesting_is_allowed() {
        let outer = OrderedMutex::new(TEMPLATES, 1u32);
        let inner = OrderedMutex::new(INTERNER, 2u32);
        let a = outer.lock();
        let b = inner.lock();
        assert_eq!(*a + *b, 3);
    }

    #[test]
    fn sequential_reacquisition_is_allowed() {
        let m = OrderedMutex::new(PREPARED_SHARDS, 0u32);
        *m.lock() += 1;
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn guards_may_drop_out_of_order() {
        let a = OrderedMutex::new(TEMPLATES, ());
        let b = OrderedMutex::new(INTERNER, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // outer released first: legal, tracker must not corrupt
        drop(gb);
        // Both free again.
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    fn other_threads_are_independent(){
        let outer = OrderedMutex::new(PREPARED_SHARDS, ());
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

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn out_of_order_nesting_trips_the_tracker() {
        let outer = OrderedMutex::new(PREPARED_SHARDS, ());
        let inner = OrderedMutex::new(TEMPLATES, ());
        let _held = outer.lock();
        // detlint::allow(lock_order): deliberate reversal; the should_panic expectation proves the runtime tracker rejects it
        let _violation = inner.lock(); // templates after prepared_shards
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn same_rank_nesting_trips_the_tracker() {
        let a = OrderedMutex::new(PREPARED_SHARDS, ());
        let b = OrderedMutex::new(PREPARED_SHARDS, ());
        let _held = a.lock();
        // detlint::allow(lock_order): deliberate same-class nesting; the should_panic expectation proves the runtime tracker rejects it
        let _violation = b.lock(); // two memo shards at once
    }
}
