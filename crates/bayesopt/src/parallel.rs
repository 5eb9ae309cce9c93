//! Deterministic fork/join helpers shared by the workspace's hot loops.
//!
//! Everything here is built on `std::thread::scope` — no external thread
//! pool — and is designed so that results are *bit-identical regardless of
//! the thread count*:
//!
//! * [`parallel_map`] preserves submission order: workers pull items off a
//!   shared atomic cursor, but each result is written back to the slot of
//!   its input index, so the output vector reads as if the map ran
//!   serially.
//! * [`split_seed`] derives an independent per-item RNG seed from a master
//!   seed and the item's index, so randomized work items do not share (or
//!   contend on) one RNG stream and their draws do not depend on which
//!   worker picks them up.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads to use when the caller asked for "auto" (0).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// Derive a per-item seed from `(master, index)` with a SplitMix64-style
/// mix. Distinct indices yield statistically independent streams, and the
/// mapping is a pure function — the scheme behind every "one RNG per work
/// item" fan-out in the workspace.
pub fn split_seed(master: u64, index: u64) -> u64 {
    let mut z = master ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map `f` over `items` on up to `threads` scoped workers, returning the
/// results in input order. `f` receives `(index, &item)`.
///
/// With `threads <= 1` (or fewer than two items) the map runs inline with
/// no thread overhead; the output is identical either way, so callers can
/// treat the thread count as a pure performance knob.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(threads, items, || (), |(), i, item| f(i, item))
}

/// [`parallel_map`] with per-worker state: each worker (the caller alone
/// when the map runs inline) builds one `init()` and passes it to `f` for
/// every item it takes, so scratch buffers are allocated once per worker,
/// not once per item. `f(&mut state, index, &item)` must not let its
/// result depend on what earlier items left in `state`: which items share
/// a worker depends on thread timing.
pub fn parallel_map_with<T, S, R, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        let mut state = init();
        return items.iter().enumerate().map(|(i, item)| f(&mut state, i, item)).collect();
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for_each_slot(threads, &mut slots, init, |state, i, slot| {
        *slot = Some(f(state, i, &items[i]));
    });
    slots.into_iter().map(|slot| slot.expect("every slot filled")).collect()
}

/// [`parallel_map`] that hands each item to its worker by value, so an
/// item may carry a `&mut` borrow (a task's claimed templates, one
/// amplification lane) that the worker owns for the call. `f` receives
/// `(index, item)`; results come back in input order.
pub fn parallel_map_owned<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let mut slots: Vec<(Option<T>, Option<R>)> =
        items.into_iter().map(|item| (Some(item), None)).collect();
    for_each_slot(
        threads,
        &mut slots,
        || (),
        |(), i, (item, result)| {
            *result = Some(f(i, item.take().expect("each item is taken once")));
        },
    );
    slots.into_iter().map(|(_, result)| result.expect("every slot filled")).collect()
}

/// [`parallel_map`] into a caller-owned buffer: clears `out` and fills it
/// with `f(i, &items[i])` in input order, reusing `out`'s allocation.
/// This is the zero-allocation variant for per-iteration hot loops (e.g.
/// scoring a few hundred acquisition candidates per `ask`); results are
/// bit-identical to `parallel_map` at any thread count.
pub fn parallel_fill<T, R, F>(threads: usize, items: &[T], out: &mut Vec<R>, f: F)
where
    T: Sync,
    R: Send + Default,
    F: Fn(usize, &T) -> R + Sync,
{
    out.clear();
    if threads <= 1 || items.len() <= 1 {
        out.extend(items.iter().enumerate().map(|(i, item)| f(i, item)));
        return;
    }
    // Placeholder-initialize the slots so workers can overwrite them by
    // index.
    out.resize_with(items.len(), R::default);
    for_each_slot(threads, out, || (), |(), i, slot| *slot = f(i, &items[i]));
}

/// The one worker loop behind every map above: `min(threads,
/// slots.len())` scoped workers, each with its own `init()` state, pull
/// indices off a shared atomic cursor and run `f(&mut state, i, &mut
/// slots[i])`. Every index is visited exactly once; which worker visits
/// it depends on timing, so `f` must write a pure function of `i` and
/// the slot's prior content.
fn for_each_slot<E, S, I, F>(threads: usize, slots: &mut [E], init: I, f: F)
where
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut E) + Sync,
{
    let len = slots.len();
    let n_workers = threads.min(len);
    let cursor = AtomicUsize::new(0);
    let base = SendPtr(slots.as_mut_ptr());
    let tracker = ClaimTracker::new(len);

    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            let (cursor, base, tracker) = (&cursor, &base, &tracker);
            let (init, f) = (&init, &f);
            scope.spawn(move || {
                let mut state = init();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= len {
                        break;
                    }
                    tracker.claim(i);
                    // SAFETY: `i < len == slots.len()`, so the pointer is
                    // in bounds. The shared `fetch_add` cursor hands each
                    // index to exactly one worker (checked by `tracker` in
                    // debug builds), so no two `&mut` slot borrows ever
                    // alias, and the borrow ends before the worker takes
                    // its next index. `slots` is exclusively borrowed and
                    // not touched by the caller while the scope runs, so
                    // `base` stays valid; the scope join happens-before
                    // the caller reads `slots` again, publishing every
                    // write.
                    let slot = unsafe { &mut *base.0.add(i) };
                    f(&mut state, i, slot);
                }
            });
        }
    });
}

/// Raw-pointer wrapper so scoped workers can borrow disjoint slots.
///
/// The wrapper itself grants no new capability — it only lets a `*mut P`
/// cross the closure-capture boundary. All aliasing discipline lives at
/// the one (documented) unsafe site in [`for_each_slot`].
struct SendPtr<P>(*mut P);
// SAFETY: sharing `&SendPtr` across scoped workers is sound because the
// wrapped pointer is only ever turned into `&mut` borrows of *disjoint*
// slots — the atomic cursor hands each index to exactly one worker, so
// no two threads touch the same `P` and the caller does not read until
// the scope join. `P: Send` is required because a slot is mutated on a
// worker thread and later dropped/consumed on the caller's thread.
unsafe impl<P: Send> Sync for SendPtr<P> {}

/// Debug-build enforcement of the disjoint-borrow contract behind
/// [`SendPtr`]: every slot index must be in bounds and claimed exactly
/// once. Compiles to a zero-sized no-op in release builds.
struct ClaimTracker {
    #[cfg(debug_assertions)]
    claimed: Vec<std::sync::atomic::AtomicBool>,
}

impl ClaimTracker {
    fn new(_len: usize) -> ClaimTracker {
        ClaimTracker {
            #[cfg(debug_assertions)]
            claimed: (0.._len).map(|_| std::sync::atomic::AtomicBool::new(false)).collect(),
        }
    }

    /// Record a claim of slot `_i`; panics (debug builds only) on an
    /// out-of-bounds index or a second claim of the same slot — either
    /// would make the subsequent `&mut` borrow unsound.
    #[inline]
    fn claim(&self, _i: usize) {
        #[cfg(debug_assertions)]
        {
            assert!(
                _i < self.claimed.len(),
                "parallel slot index {_i} out of bounds ({} slots)",
                self.claimed.len()
            );
            assert!(
                !self.claimed[_i].swap(true, Ordering::Relaxed),
                "parallel slot {_i} claimed more than once"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        let serial = parallel_map(1, &items, |i, &v| i * 1000 + v * v);
        let parallel = parallel_map(8, &items, |i, &v| i * 1000 + v * v);
        assert_eq!(serial, parallel);
        assert_eq!(serial[3], 3 * 1000 + 9);
    }

    #[test]
    fn split_seed_streams_are_distinct() {
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|i| split_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
        assert_eq!(split_seed(7, 3), split_seed(7, 3));
    }

    #[test]
    fn map_with_builds_one_state_per_worker() {
        let items: Vec<usize> = (0..97).collect();
        let serial = parallel_map(1, &items, |i, &v| i + v);
        for threads in [1, 4] {
            let inits = AtomicUsize::new(0);
            let init = || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::new()
            };
            let mapped = parallel_map_with(threads, &items, init, |seen, i, &v| {
                seen.push(i);
                i + v
            });
            assert_eq!(mapped, serial);
            assert_eq!(inits.load(Ordering::Relaxed), threads, "{threads} threads");
        }
    }

    #[test]
    fn map_owned_lends_each_worker_its_own_mut() {
        // Items carry `&mut` borrows of disjoint counters; every worker
        // mutates only the counter it was handed.
        for threads in [1, 4] {
            let mut counters: Vec<usize> = vec![0; 37];
            let results = parallel_map_owned(threads, counters.iter_mut().collect(), |i, c| {
                *c += i + 1;
                *c * 2
            });
            assert_eq!(results, (0..37).map(|i| (i + 1) * 2).collect::<Vec<_>>());
            assert_eq!(counters, (1..=37).collect::<Vec<_>>(), "{threads} threads");
        }
        assert!(parallel_map_owned(4, Vec::<u8>::new(), |_, v| v).is_empty());
    }

    #[test]
    fn handles_empty_and_single_item() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(4, &empty, |_, &v| v).is_empty());
        assert_eq!(parallel_map(4, &[9u32], |_, &v| v + 1), vec![10]);
    }

    #[test]
    fn fill_matches_map_and_reuses_the_buffer() {
        let items: Vec<usize> = (0..53).collect();
        let mapped = parallel_map(4, &items, |i, &v| (i + v) as f64);
        let mut buffer: Vec<f64> = Vec::new();
        parallel_fill(4, &items, &mut buffer, |i, &v| (i + v) as f64);
        assert_eq!(buffer, mapped);
        let capacity = buffer.capacity();
        parallel_fill(1, &items, &mut buffer, |i, &v| (i * v) as f64);
        assert_eq!(buffer.capacity(), capacity, "no reallocation on reuse");
        assert_eq!(buffer[7], 49.0);
        parallel_fill(4, &[] as &[usize], &mut buffer, |_, &v| v as f64);
        assert!(buffer.is_empty());
    }

    #[test]
    fn resolve_threads_is_positive() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
