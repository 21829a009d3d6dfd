//! The host-parallel shard scheduler.
//!
//! Simulated cycle counts do not depend on which host thread simulates a
//! machine, so host threads only buy host speed. They are spent in one
//! place: `repro bench` fans its independent sweep points out over
//! [`run_indexed`]. Every point is one shard that builds its own
//! [`dbx_cpu::Processor`], so shards share nothing, and the results come
//! back positionally (`Vec<T>` indexed by shard), which keeps the suite
//! byte-identical whatever the thread count. Inside one run — a multicore
//! job, a query — the simulated cores run one after another on the
//! calling thread.
//!
//! The pool itself is a classic batch work-stealing scheduler: worker `w`
//! seeds its own deque with shards `w, w+T, w+2T, …`, pops from the front
//! of its deque, and steals from the back of a neighbour's when it runs
//! dry. Sweep-point runtimes are highly skewed (a 16-core scaling point
//! next to a one-kernel point), which is exactly the case stealing absorbs.

use std::collections::VecDeque;
use std::sync::Mutex;

/// How a fan-out layer maps its shards onto host threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HostSched {
    /// Run every shard on the calling thread, in shard order — the
    /// reference path the parallel scheduler must be bit-identical to.
    #[default]
    Sequential,
    /// Run shards on a work-stealing pool of host threads.
    Parallel {
        /// Worker threads; `0` means one per available host core.
        threads: usize,
    },
}

impl HostSched {
    /// Worker threads a batch of `shards` would actually use (never more
    /// threads than shards, never zero).
    pub fn effective_threads(&self, shards: usize) -> usize {
        match *self {
            HostSched::Sequential => 1,
            HostSched::Parallel { threads } => {
                let t = if threads == 0 {
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1)
                } else {
                    threads
                };
                t.min(shards).max(1)
            }
        }
    }
}

/// Pops the next shard for worker `w`: front of its own deque first, then
/// the back of the first non-empty neighbour (the steal).
fn next_shard(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = queues[w].lock().expect("queue poisoned").pop_front() {
        return Some(i);
    }
    let n = queues.len();
    for off in 1..n {
        let victim = (w + off) % n;
        if let Some(i) = queues[victim].lock().expect("queue poisoned").pop_back() {
            return Some(i);
        }
    }
    None
}

/// Runs `f(0..shards)` under the scheduler and returns the results in
/// shard order.
///
/// `f` must be freely callable from worker threads (`Sync`) and its
/// results must travel back (`T: Send`); a worker panic propagates to the
/// caller. [`HostSched::Sequential`] (and degenerate parallel shapes —
/// one shard, one worker) call `f` on the current thread in shard order,
/// which is the bit-identity reference for everything built on top.
pub fn run_indexed<T, F>(sched: HostSched, shards: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = sched.effective_threads(shards);
    if threads <= 1 || shards <= 1 {
        return (0..shards).map(f).collect();
    }
    // Seed worker deques round-robin so initial work is balanced and a
    // worker's own shards stay in ascending order (cache-friendly when
    // shards index into the same input slices).
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| Mutex::new((w..shards).step_by(threads).collect()))
        .collect();
    let mut results: Vec<Option<T>> = std::iter::repeat_with(|| None).take(shards).collect();
    let harvested: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let queues = &queues;
                let f = &f;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    while let Some(i) = next_shard(queues, w) {
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scheduler worker panicked"))
            .collect()
    });
    for (i, t) in harvested.into_iter().flatten() {
        debug_assert!(results[i].is_none(), "shard {i} ran twice");
        results[i] = Some(t);
    }
    results
        .into_iter()
        .map(|r| r.expect("every shard produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_shard_order() {
        for sched in [
            HostSched::Sequential,
            HostSched::Parallel { threads: 1 },
            HostSched::Parallel { threads: 3 },
            HostSched::Parallel { threads: 0 },
        ] {
            let out = run_indexed(sched, 97, |i| i * i);
            assert_eq!(out, (0..97).map(|i| i * i).collect::<Vec<_>>(), "{sched:?}");
        }
    }

    #[test]
    fn every_shard_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        run_indexed(HostSched::Parallel { threads: 4 }, 64, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn skewed_shards_spread_over_multiple_workers() {
        // Shard 0 is long; a single greedy worker would serialize. With
        // stealing, other workers must pick up the short shards.
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        run_indexed(HostSched::Parallel { threads: 4 }, 32, |i| {
            seen.lock().unwrap().insert(std::thread::current().id());
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
        });
        let n = seen.lock().unwrap().len();
        assert!(n >= 2, "expected >=2 workers to run shards, saw {n}");
    }

    #[test]
    fn empty_and_single_batches_are_degenerate() {
        let out: Vec<u32> = run_indexed(HostSched::Parallel { threads: 8 }, 0, |_| unreachable!());
        assert!(out.is_empty());
        let out = run_indexed(HostSched::Parallel { threads: 8 }, 1, |i| i + 41);
        assert_eq!(out, vec![41]);
    }

    #[test]
    fn effective_threads_clamps_to_shards() {
        assert_eq!(HostSched::Sequential.effective_threads(100), 1);
        assert_eq!(HostSched::Parallel { threads: 8 }.effective_threads(3), 3);
        assert_eq!(HostSched::Parallel { threads: 2 }.effective_threads(100), 2);
        assert!(HostSched::Parallel { threads: 0 }.effective_threads(100) >= 1);
    }

    #[test]
    fn worker_panics_propagate() {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_indexed(HostSched::Parallel { threads: 2 }, 8, |i| {
                assert!(i != 5, "boom");
                i
            })
        }));
        assert!(r.is_err(), "a shard panic must reach the caller");
    }
}
