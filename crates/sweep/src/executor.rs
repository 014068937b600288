//! Work-stealing parallel map over scenario-sized work items.
//!
//! Std-threads only (the workspace builds offline): each worker owns a
//! deque seeded round-robin; a worker drains its own queue from the
//! front and, when empty, steals half of the largest victim queue from
//! the back. Results land in their input slot, so output order — and
//! therefore every downstream ranking — is independent of thread count
//! and interleaving.

use crate::engine::lock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Counters from one parallel run (informational; not part of reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Items executed.
    pub executed: usize,
    /// Successful steal operations across all workers.
    pub steals: usize,
    /// Worker threads actually spawned.
    pub workers: usize,
}

/// Applies `f` to every item on `threads` workers with work stealing;
/// returns results in input order plus run counters.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> (Vec<R>, ExecutorStats)
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(items, threads, || (), |_| (), |_, item| f(item))
}

/// [`parallel_map`] with per-worker state: each worker runs `init` once
/// at spawn, threads the state mutably through every item it executes,
/// and hands it to `finish` at exit. The sweep engine checks a
/// [`daydream_core::SimScratch`] arena out of its pool per worker this
/// way, so a batch of scenario evaluations shares warm buffers instead
/// of allocating per item, and counts each worker's work in a
/// [`crate::RunStats`] beside the arena.
pub fn parallel_map_with<T, R, S, I, D, F>(
    items: Vec<T>,
    threads: usize,
    init: I,
    finish: D,
    f: F,
) -> (Vec<R>, ExecutorStats)
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    D: Fn(S) + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return (Vec::new(), ExecutorStats::default());
    }
    let workers = threads.max(1).min(n);

    // One worker means no stealing and no ordering question — run
    // inline. A resident daemon's single warm what-if would otherwise
    // pay a thread spawn that dwarfs the O(cone) evaluation itself.
    if workers == 1 {
        let mut state = init();
        let results: Vec<R> = items.into_iter().map(|item| f(&mut state, item)).collect();
        finish(state);
        return (
            results,
            ExecutorStats {
                executed: n,
                steals: 0,
                workers: 1,
            },
        );
    }

    let queues: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        lock(&queues[i % workers]).push_back((i, item));
    }

    // Each worker accumulates `(input index, result)` pairs privately and
    // merges them once at exit — one result-lock acquisition per worker
    // instead of one per item.
    let merged: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    let steals = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for me in 0..workers {
            let queues = &queues;
            let merged = &merged;
            let steals = &steals;
            let init = &init;
            let finish = &finish;
            let f = &f;
            scope.spawn(move || {
                let mut state = init();
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    // Own queue first (front: preserves locality of the
                    // round-robin seeding).
                    let own = lock(&queues[me]).pop_front();
                    let (idx, item) = match own {
                        Some(work) => work,
                        None => {
                            // Steal half of the fullest victim, from the back.
                            match steal_batch(queues, me) {
                                Some(batch) => {
                                    steals.fetch_add(1, Ordering::Relaxed);
                                    let mut q = lock(&queues[me]);
                                    for w in batch {
                                        q.push_back(w);
                                    }
                                    continue;
                                }
                                // Nothing anywhere: workers cannot create new
                                // work, so empty queues mean we are done.
                                None => break,
                            }
                        }
                    };
                    local.push((idx, f(&mut state, item)));
                }
                finish(state);
                lock(merged).append(&mut local);
            });
        }
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (idx, r) in merged.into_inner().unwrap_or_else(PoisonError::into_inner) {
        slots[idx] = Some(r);
    }
    let results: Vec<R> = slots
        .into_iter()
        .map(|s| s.expect("every slot filled when all queues drain"))
        .collect();
    (
        results,
        ExecutorStats {
            executed: n,
            steals: steals.load(Ordering::Relaxed),
            workers,
        },
    )
}

/// Pops up to half (at least one) of the fullest other queue.
///
/// Victims are ranked by a racy length snapshot, but the chosen victim is
/// re-checked and drained under a *single* lock acquisition — a queue that
/// was emptied between the snapshot and the steal is simply skipped in
/// favor of the next-fullest, so the steal never misses work that still
/// exists elsewhere.
fn steal_batch<T>(queues: &[Mutex<VecDeque<(usize, T)>>], me: usize) -> Option<Vec<(usize, T)>> {
    let mut victims: Vec<(usize, usize)> = (0..queues.len())
        .filter(|&v| v != me)
        .map(|v| (lock(&queues[v]).len(), v))
        .filter(|&(len, _)| len > 0)
        .collect();
    victims.sort_unstable_by(|a, b| b.cmp(a));
    for (_, v) in victims {
        let mut q = lock(&queues[v]);
        if q.is_empty() {
            continue;
        }
        let take = (q.len() / 2).max(1);
        let from = q.len() - take;
        return Some(q.drain(from..).collect());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn maps_in_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        for threads in [1, 2, 3, 8, 200] {
            let (out, stats) = parallel_map(items.clone(), threads, |x| x * x);
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
            assert_eq!(stats.executed, 97);
            assert!(stats.workers <= 97);
        }
    }

    #[test]
    fn empty_input() {
        let (out, stats) = parallel_map(Vec::<u32>::new(), 4, |x| x);
        assert!(out.is_empty());
        assert_eq!(stats.workers, 0);
    }

    #[test]
    fn uneven_work_gets_stolen() {
        // One poison-pill slow item forces other workers to steal the
        // fast items parked behind it on the same queue.
        let ran = AtomicUsize::new(0);
        let (out, _) = parallel_map((0..64).collect::<Vec<u64>>(), 8, |x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            ran.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(ran.load(Ordering::Relaxed), 64);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn per_worker_state_is_initialized_and_finished() {
        let inits = AtomicUsize::new(0);
        let counted = AtomicUsize::new(0);
        let (out, stats) = parallel_map_with(
            (0..50).collect::<Vec<u64>>(),
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |s| {
                counted.fetch_add(s, Ordering::Relaxed);
            },
            |s, x| {
                *s += 1;
                x * 2
            },
        );
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(inits.load(Ordering::Relaxed), stats.workers);
        assert_eq!(
            counted.load(Ordering::Relaxed),
            50,
            "every item threads through exactly one worker's state"
        );
    }

    #[test]
    fn single_thread_is_sequential() {
        let order = Mutex::new(Vec::new());
        parallel_map((0..10).collect::<Vec<u64>>(), 1, |x| {
            lock(&order).push(x);
        });
        assert_eq!(*lock(&order), (0..10).collect::<Vec<u64>>());
    }
}
