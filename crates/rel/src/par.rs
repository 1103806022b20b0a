//! Deterministic scoped-thread fan-out, shared by the morsel-driven
//! executor ([`crate::exec`]) and — via `xmlshred_core::parallel` — the
//! advisor's what-if costing loops.
//!
//! [`try_parallel_map`] runs a pure function over a slice on scoped threads
//! (`std::thread::scope` — no dependencies) and returns results **in item
//! order**, so callers reduce serially in a fixed order and produce
//! bit-identical output for any thread count. Work is distributed by an
//! atomic cursor, which only affects *which thread* computes an item, never
//! the result.
//!
//! A cooperative `stop` predicate is polled before each item is claimed;
//! items not started before it returns `true` come back as `None`. It is
//! the one cancellation hook of both callers: the executor passes its
//! statement deadline (and turns an unstarted morsel into a typed timeout),
//! the advisor its anytime `Deadline`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve a `threads` knob: `0` means all available parallelism.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Map `work` over `items` on up to `threads` scoped threads, with one
/// `state` per worker (built by `init`), returning results in item order.
/// Slot `i` is `None` iff item `i` was not claimed before `stop()` returned
/// `true`; with a never-firing `stop` every slot is `Some`.
///
/// With one effective thread (or one item) this degenerates to a plain
/// serial loop with zero thread overhead.
pub fn try_parallel_map<T, R, S, C, I, F>(
    items: &[T],
    threads: usize,
    stop: C,
    init: I,
    work: F,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    C: Fn() -> bool + Sync,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let threads = effective_threads(threads).min(items.len().max(1));
    if threads <= 1 {
        let mut state = init();
        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        for (index, item) in items.iter().enumerate() {
            if stop() {
                break;
            }
            out.push(Some(work(&mut state, index, item)));
        }
        out.resize_with(items.len(), || None);
        return out;
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let cursor = &cursor;
        let stop = &stop;
        let init = &init;
        let work = &work;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut state = init();
                    let mut produced = Vec::new();
                    loop {
                        if stop() {
                            break;
                        }
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= items.len() {
                            break;
                        }
                        produced.push((index, work(&mut state, index, &items[index])));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (index, result) in handle.join().expect("try_parallel_map worker panicked") {
                slots[index] = Some(result);
            }
        }
    });
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `try_parallel_map` with a never-firing stop, every slot unwrapped.
    fn total<T: Sync, R: Send>(
        items: &[T],
        threads: usize,
        work: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        try_parallel_map(items, threads, || false, || (), |_, _, item| work(item))
            .into_iter()
            .map(|slot| slot.expect("no stop: every slot filled"))
            .collect()
    }

    #[test]
    fn results_in_item_order_for_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial = total(&items, 1, |&x| x * x);
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                serial,
                total(&items, threads, |&x| x * x),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn stop_leaves_unclaimed_slots_none() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 4] {
            let out = try_parallel_map(&items, threads, || true, || (), |_, _, &x: &u64| x);
            assert_eq!(out.len(), items.len());
            assert!(out.iter().all(Option::is_none), "threads={threads}");
        }
    }

    #[test]
    fn per_worker_state_is_isolated() {
        let items: Vec<usize> = (0..100).collect();
        let out = try_parallel_map(
            &items,
            4,
            || false,
            || 0usize,
            |count, _i, &x| {
                *count += 1;
                (x, *count)
            },
        );
        for (i, slot) in out.iter().enumerate() {
            let (x, count) = slot.expect("no stop: every slot filled");
            assert_eq!(x, i);
            assert!(count >= 1);
        }
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u32> = Vec::new();
        assert!(total(&empty, 8, |&x: &u32| x).is_empty());
        assert_eq!(total(&[7u32], 8, |&x| x + 1), vec![8]);
    }

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }
}
