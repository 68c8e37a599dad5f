//! The workspace's one worker pool: a scoped-thread fan-out shared by the
//! trial chunks of [`Simulator::run_program_with_stats`] and the sweep
//! cells of `nisq_exp::Session::execute`.
//!
//! [`Simulator::run_program_with_stats`]: crate::Simulator::run_program_with_stats

use std::panic::resume_unwind;

/// Runs `worker` on `threads` workers and returns every worker's result.
///
/// The calling thread is one of the workers and the other `threads - 1`
/// are scoped threads that end with the call; `threads <= 1` runs `worker`
/// inline without spawning. A worker takes no arguments: it pulls work from
/// a cursor the caller shares with it (an atomic index, a lock-guarded
/// claim), so which worker runs which item varies from call to call.
/// Callers that promise thread-count-invariant results give every item a
/// fixed meaning and merge the returned values commutatively.
///
/// # Panics
///
/// Re-raises a panicking worker's original payload on the caller once
/// every worker has stopped, so a `catch_unwind` around the call sees the
/// worker's own panic.
pub fn run_workers<R, F>(threads: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn() -> R + Sync,
{
    if threads <= 1 {
        return vec![worker()];
    }
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(&worker)).collect();
        let mut results = vec![worker()];
        for handle in spawned {
            match handle.join() {
                Ok(result) => results.push(result),
                Err(payload) => resume_unwind(payload),
            }
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Every worker drains a shared cursor over `0..items`, returning the
    /// items it pulled.
    fn drain(threads: usize, items: usize) -> Vec<Vec<usize>> {
        let next = AtomicUsize::new(0);
        run_workers(threads, || {
            let mut pulled = Vec::new();
            loop {
                let item = next.fetch_add(1, Ordering::Relaxed);
                if item >= items {
                    return pulled;
                }
                pulled.push(item * item);
            }
        })
    }

    #[test]
    fn merged_results_do_not_depend_on_the_thread_count() {
        let expected: Vec<usize> = (0..1000).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8] {
            let per_worker = drain(threads, 1000);
            assert_eq!(per_worker.len(), threads);
            let mut merged: Vec<usize> = per_worker.into_iter().flatten().collect();
            merged.sort_unstable();
            assert_eq!(merged, expected, "{threads} threads");
        }
    }

    #[test]
    fn one_thread_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        for threads in [0, 1] {
            assert_eq!(
                run_workers(threads, || std::thread::current().id()),
                vec![caller]
            );
        }
        let ids = run_workers(3, || std::thread::current().id());
        assert_eq!(ids[0], caller);
        assert!(ids[1..].iter().all(|id| *id != caller));
    }

    #[test]
    fn a_spawned_workers_panic_reaches_the_caller_with_its_payload() {
        let caller = std::thread::current().id();
        let outcome = catch_unwind(|| {
            run_workers(2, || {
                if std::thread::current().id() != caller {
                    panic!("spawned worker failed");
                }
            })
        });
        let payload = outcome.expect_err("the worker's panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"spawned worker failed")
        );
    }
}
