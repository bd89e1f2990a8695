//! Index-ordered fan-out over scoped threads.
//!
//! Every parallel loop in the workspace — batch screening, cohort and
//! dataset synthesis, the engine's drain — is the same shape: map
//! `0..n` through a function that needs a per-thread workspace (a
//! [`DspScratch`](crate::plan::DspScratch), a simulator scratch) and
//! collect the results in index order. [`map_indexed`] is that loop,
//! written once on std's scoped threads: no pool, no channels, no
//! `'static` bounds.
//!
//! Workers claim indices from a shared atomic counter (dynamic load
//! balancing — some items fail fast, some run the full pipeline), so
//! which thread computes which index is nondeterministic. When `f`'s
//! result depends only on its index and on state that `init` builds
//! fresh, the output is therefore bit-identical at every worker count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count batch entry points default to: the machine's
/// available parallelism, capped by the number of work items (at least
/// one).
pub fn default_workers(items: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(items.max(1))
}

/// Maps `f(state, index)` over `0..n`, returning the results in index
/// order.
///
/// `workers` is clamped to `1..=n`. At one worker the map runs inline on
/// the calling thread with a single `init()` state and spawns nothing.
/// Otherwise `workers` scoped threads each build one `init()` state and
/// claim indices from a shared counter until none remain.
///
/// # Panics
///
/// A panic in `f` or `init` is re-raised on the caller with its original
/// payload (via [`std::panic::resume_unwind`]) once every worker has
/// stopped.
pub fn map_indexed<T, S, I, F>(n: usize, workers: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut claimed: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut state = init();
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return local;
                        }
                        local.push((i, f(&mut state, i)));
                    }
                })
            })
            .collect();
        let mut all = Vec::with_capacity(n);
        for h in handles {
            match h.join() {
                Ok(local) => all.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });
    // The counter hands out each index exactly once, so the keys are
    // distinct and sorting restores index order.
    claimed.sort_unstable_by_key(|&(i, _)| i);
    claimed.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn default_workers_is_positive_and_capped() {
        assert_eq!(default_workers(0), 1);
        assert!(default_workers(1) >= 1);
        assert!(default_workers(3) <= 3);
        assert!(default_workers(1024) >= 1);
    }

    #[test]
    fn preserves_order_and_visits_each_index_once_at_any_worker_count() {
        for n in [0usize, 1, 17] {
            for workers in [0usize, 1, 2, 3, 8, n + 5] {
                let visits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = map_indexed(n, workers, || (), |_, i| {
                    visits[i].fetch_add(1, Ordering::Relaxed);
                    i * i
                });
                let expect: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(out, expect, "n = {n}, workers = {workers}");
                assert!(
                    visits.iter().all(|v| v.load(Ordering::Relaxed) == 1),
                    "n = {n}, workers = {workers}"
                );
            }
        }
    }

    #[test]
    fn one_worker_runs_inline_with_one_state() {
        let caller = std::thread::current().id();
        let inits = AtomicUsize::new(0);
        let out = map_indexed(
            5,
            1,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, _| std::thread::current().id(),
        );
        assert!(out.iter().all(|&id| id == caller));
        assert_eq!(inits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_panic_is_reraised_with_its_payload() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            map_indexed(8, 2, || (), |_, i| {
                if i == 3 {
                    panic!("item 3 failed");
                }
                i
            })
        }));
        let payload = result.expect_err("the worker panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 3 failed"));
    }
}
