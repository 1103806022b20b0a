//! Deterministic parallel fan-out for the advisor's hot loops.
//!
//! [`parallel_map`] runs a pure function over a slice on scoped threads and
//! returns results **in item order**, so callers reduce serially in a fixed
//! order and produce bit-identical output for any thread count. Work is
//! distributed by an atomic cursor, which only affects *which thread*
//! computes an item, never the result: shared state is limited to the
//! memoizing cost oracle (a pure function) and commutative atomic counters.
//!
//! The scoped-thread loop itself lives in [`xmlshred_rel::par`] and is
//! shared with the morsel-driven executor, and so is its one cancellation
//! mechanism: the `stop` hook polled before each item is claimed. The
//! executor passes its statement deadline there; this module passes the
//! advisor's anytime [`Deadline`] (items not started before expiry come
//! back as `None` — with an unbounded deadline every slot is `Some`,
//! preserving the bit-identical guarantee) and adds fan-out metrics.

use crate::metrics::MetricsRegistry;
use crate::search::Deadline;

pub use xmlshred_rel::par::effective_threads;

/// Map `work` over `items` on up to `threads` scoped threads, with one
/// `state` per worker (built by `init`), returning results in item order.
/// Slot `i` is `None` iff item `i` was not started before `deadline`
/// expired; with an unbounded deadline every slot is `Some`.
///
/// With a `metrics` sink, records `parallel.items` (deterministic: the
/// fan-out size never depends on thread count) and `parallel.not_started`
/// (schedule class: how many slots a deadline left unfilled depends on
/// timing).
///
/// With one effective thread (or one item) this degenerates to a plain
/// serial loop with zero thread overhead.
pub fn parallel_map<T, R, S, I, F>(
    items: &[T],
    threads: usize,
    deadline: &Deadline,
    metrics: Option<&MetricsRegistry>,
    init: I,
    work: F,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let slots =
        xmlshred_rel::par::try_parallel_map(items, threads, || deadline.expired(), init, work);
    record_fanout(metrics, &slots);
    slots
}

fn record_fanout<R>(metrics: Option<&MetricsRegistry>, slots: &[Option<R>]) {
    let Some(metrics) = metrics else {
        return;
    };
    metrics.count("parallel.items", slots.len() as u64);
    let not_started = slots.iter().filter(|s| s.is_none()).count() as u64;
    if not_started > 0 {
        metrics.count_sched("parallel.not_started", not_started);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let items: Vec<u64> = (0..257).collect();
        let square = |_: &mut (), _i: usize, &x: &u64| -> u64 { x * x };
        let serial = parallel_map(&items, 1, &Deadline::none(), None, || (), square);
        for threads in [2, 3, 4, 8] {
            let parallel = parallel_map(&items, threads, &Deadline::none(), None, || (), square);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn per_worker_state_is_isolated() {
        let items: Vec<usize> = (0..100).collect();
        // Each worker counts locally; results carry (input, running count).
        let results = parallel_map(
            &items,
            4,
            &Deadline::none(),
            None,
            || 0usize,
            |count, _i, &x| {
                *count += 1;
                (x, *count)
            },
        );
        // Results are in item order regardless of which worker ran them.
        for (i, slot) in results.iter().enumerate() {
            let (x, count) = slot.expect("unbounded deadline fills every slot");
            assert_eq!(x, i);
            assert!(count >= 1);
        }
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u32> = Vec::new();
        let deadline = Deadline::none();
        assert!(parallel_map(&empty, 8, &deadline, None, || (), |_, _, &x: &u32| x).is_empty());
        assert_eq!(
            parallel_map(&[7u32], 8, &deadline, None, || (), |_, _, &x| x + 1),
            vec![Some(8)]
        );
    }

    #[test]
    fn expired_deadline_leaves_slots_unfilled() {
        let items: Vec<u64> = (0..64).collect();
        let expired = Deadline::at(std::time::Instant::now() - std::time::Duration::from_secs(1));
        for threads in [1, 4] {
            let out = parallel_map(&items, threads, &expired, None, || (), |_, _, &x: &u64| x);
            assert_eq!(out.len(), items.len());
            assert!(out.iter().all(Option::is_none), "threads={threads}");
        }
    }

    #[test]
    fn fanout_metrics_are_thread_invariant() {
        let items: Vec<u64> = (0..100).collect();
        let mut fingerprints = Vec::new();
        for threads in [1, 4] {
            let metrics = MetricsRegistry::new();
            parallel_map(
                &items,
                threads,
                &Deadline::none(),
                Some(&metrics),
                || (),
                |_, _, &x: &u64| x,
            );
            let snap = metrics.snapshot();
            assert_eq!(snap.deterministic.get("parallel.items"), Some(&100));
            assert!(!snap.schedule.contains_key("parallel.not_started"));
            fingerprints.push(snap.deterministic_fingerprint());
        }
        assert_eq!(fingerprints[0], fingerprints[1]);
    }

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }
}
