//! Speculative window-parallel dispatch for very large simulations.
//!
//! The frontier simulator ([`crate::simulate_compiled`]) spends most of
//! its time at 10^6-task scale churning the per-thread binary heaps: on
//! long distributed-training unrolls the communication channel's ready
//! backlog grows linearly, so every dispatch pays `log`-depth sift costs
//! on a heap that no longer fits in cache. This module removes the heaps
//! from the common path:
//!
//! 1. **Speculate** ([`presim`]): a heap-free FIFO-topological pass
//!    computes an *estimated* schedule — per-task start / finish /
//!    dependency-ready times and per-thread dispatch sequences — in one
//!    O(V+E) sweep. On replay-shaped graphs (chain-structured threads,
//!    which is what profiled DNN iterations compile to) the estimate is
//!    exactly the greedy schedule; on adversarial graphs it may diverge.
//! 2. **Certify** ([`verify`]): a linear backward sweep per thread checks
//!    that the estimate is a fixpoint of the greedy dispatch rule — each
//!    start equals `max(ready, prev finish)`, and no later task on the
//!    same thread could have preempted an idle gap (exact check on
//!    `(ready, rank, id)` suffix minima) or won a same-instant tie
//!    (conservative check on `(rank, id)` suffix minima). Any violation
//!    yields the earliest instant the speculation can differ from the
//!    serial execution (the *corruption instant*).
//! 3. **Commit / roll back per window**: task starts are bucketed into
//!    start-time windows; every window strictly below the corruption
//!    instant commits its speculated starts verbatim, and the remainder
//!    is re-dispatched through the *same* [`dispatch_loop`] the serial
//!    simulator runs, seeded from the committed prefix exactly like the
//!    incremental simulator seeds from a cutoff. A fully certified run
//!    never touches a heap; a rollback is never wrong, only slower.
//!
//! The result is **byte-identical to the serial simulator by
//! construction**: commits are only taken where the certification proves
//! the speculation equals the greedy schedule, and everything else runs
//! the real dispatch loop. The equivalence proptests extend to this path
//! (`tests/sim_equivalence.rs`), and a `#[cfg(test)]` corruption hook
//! pins that a *wrong* speculation is caught and rolled back rather than
//! committed.
//!
//! This is a single-process algorithmic optimization (the container this
//! grows on is single-core); it does not spawn worker threads. The win
//! comes from replacing heap churn with linear sweeps, not parallelism.

use crate::compiled::{CompactId, CompiledGraph};
use crate::graph::GraphError;
use crate::sim::{
    dispatch_loop, sim_compiled_core, CompiledSim, EarliestStart, FrontierOrder, Rank,
    ThreadFrontier, IDLE,
};

/// Tuning for [`simulate_windowed_with`].
#[derive(Debug, Clone)]
pub struct WindowedOptions {
    /// Number of start-time windows; `0` picks one per ~16k tasks,
    /// clamped to 4..=64. Windows only set the rollback granularity —
    /// correctness never depends on their placement.
    pub windows: usize,
    /// Below this task count the serial simulator runs directly
    /// (`engaged = false`); the speculative pass only pays off at scale.
    pub min_tasks: usize,
}

impl Default for WindowedOptions {
    fn default() -> Self {
        WindowedOptions {
            windows: 0,
            min_tasks: 32_768,
        }
    }
}

/// Accounting for one windowed simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowedStats {
    /// Total start-time windows the run was partitioned into.
    pub windows: usize,
    /// Windows committed verbatim from the certified speculation.
    pub certified_windows: usize,
    /// Windows re-dispatched through the serial loop.
    pub redispatched_windows: usize,
    /// 1 if certification found a divergence and rolled back, else 0.
    pub rollbacks: usize,
    /// Tasks committed from the speculation.
    pub certified_tasks: usize,
    /// Tasks re-dispatched through the serial loop.
    pub redispatched_tasks: usize,
    /// `false` when the graph was below `min_tasks` and the serial
    /// simulator ran directly.
    pub engaged: bool,
}

impl WindowedStats {
    fn disengaged(tasks: usize) -> Self {
        WindowedStats {
            windows: 0,
            certified_windows: 0,
            redispatched_windows: 0,
            rollbacks: 0,
            certified_tasks: 0,
            redispatched_tasks: tasks,
            engaged: false,
        }
    }
}

/// Speculated schedule: estimated start/finish/ready per task plus the
/// per-thread dispatch sequences the estimates imply.
struct Presim {
    est_start: Vec<u64>,
    est_tent: Vec<u64>,
    est_fin: Vec<u64>,
    seqs: Vec<Vec<u32>>,
}

/// Windowed simulation under the default policy.
pub fn simulate_windowed(cg: &CompiledGraph) -> Result<CompiledSim, GraphError> {
    simulate_windowed_with(cg, &EarliestStart, &WindowedOptions::default()).map(|(sim, _)| sim)
}

/// Windowed simulation under `order`, returning commit/rollback stats.
pub fn simulate_windowed_with<O: FrontierOrder>(
    cg: &CompiledGraph,
    order: &O,
    opts: &WindowedOptions,
) -> Result<(CompiledSim, WindowedStats), GraphError> {
    windowed_core(cg, order, opts, None)
}

/// Test-only entry that corrupts the speculated starts before
/// certification — pins that a wrong speculation (e.g. a bogus window
/// seeded from a bad boundary) is *detected* and rolled back, not
/// committed.
#[cfg(test)]
pub(crate) fn simulate_windowed_corrupted<O: FrontierOrder>(
    cg: &CompiledGraph,
    order: &O,
    opts: &WindowedOptions,
    corrupt: &dyn Fn(&mut Vec<u64>),
) -> Result<(CompiledSim, WindowedStats), GraphError> {
    windowed_core(cg, order, opts, Some(corrupt))
}

#[allow(clippy::type_complexity)]
fn windowed_core<O: FrontierOrder>(
    cg: &CompiledGraph,
    order: &O,
    opts: &WindowedOptions,
    corrupt: Option<&dyn Fn(&mut Vec<u64>)>,
) -> Result<(CompiledSim, WindowedStats), GraphError> {
    let n = cg.len();
    if n < opts.min_tasks || n == 0 {
        let (sim, _) = sim_compiled_core(cg, order)?;
        return Ok((sim, WindowedStats::disengaged(n)));
    }

    let mut p = presim(cg)?;
    if let Some(f) = corrupt {
        f(&mut p.est_start);
    }
    let ranks: Vec<Rank> = (0..n)
        .map(|i| order.rank(cg, CompactId(i as u32)))
        .collect();
    let cut = verify(&p, &ranks);

    let w_target = if opts.windows == 0 {
        (n / 16_384).clamp(4, 64)
    } else {
        opts.windows.max(1)
    };
    let boundaries = window_boundaries(&p.est_start, w_target);
    let windows = boundaries.len() + 1;

    // Roll back to the last window boundary at or below the corruption
    // instant: windows strictly below it commit, the rest re-dispatch.
    let (commit_h, certified_windows) = if cut == u64::MAX {
        (u64::MAX, windows)
    } else {
        let idx = boundaries.partition_point(|&b| b <= cut);
        if idx == 0 {
            (0, 0)
        } else {
            (boundaries[idx - 1], idx)
        }
    };

    let t_count = cg.thread_count();
    let mut start = vec![0u64; n];
    let mut wait = vec![0u64; n];
    let mut progress = vec![0u64; t_count];
    let mut makespan = 0u64;
    let mut committed = vec![false; n];
    let mut committed_tasks = 0usize;

    // Commit each thread's certified prefix. Estimated starts are
    // monotone along a thread sequence wherever they are genuine, and
    // the corruption cut guarantees everything below `commit_h` is.
    for (t, seq) in p.seqs.iter().enumerate() {
        let mut pf = 0u64;
        for &u in seq {
            let ui = u as usize;
            let s = p.est_start[ui];
            if s >= commit_h {
                break;
            }
            start[ui] = s;
            wait[ui] = s - pf;
            pf = p.est_fin[ui];
            progress[t] = pf;
            makespan = makespan.max(s + cg.duration_ns(CompactId(u)));
            committed[ui] = true;
            committed_tasks += 1;
        }
    }

    let redispatched_tasks = n - committed_tasks;
    if redispatched_tasks > 0 {
        // Seed the serial loop from the committed prefix, exactly like
        // the incremental simulator seeds from a cutoff: remaining
        // predecessor counts and tentative starts relative to the
        // committed tasks' (certified, hence true) finish times.
        let mut tentative = vec![0u64; n];
        let mut preds = cg.pred_counts();
        for ui in 0..n {
            if !committed[ui] {
                continue;
            }
            let fin = p.est_fin[ui];
            for &v in cg.successors(CompactId(ui as u32)) {
                let vi = v.0 as usize;
                if !committed[vi] {
                    tentative[vi] = tentative[vi].max(fin);
                    preds[vi] -= 1;
                }
            }
        }
        let mut fronts: Vec<ThreadFrontier> =
            (0..t_count).map(|_| ThreadFrontier::default()).collect();
        for ui in 0..n {
            if committed[ui] || preds[ui] != 0 {
                continue;
            }
            let t = cg.thread_of(CompactId(ui as u32)).0 as usize;
            fronts[t].push(tentative[ui], ranks[ui], ui as u32, progress[t]);
        }
        let mut bests = vec![IDLE; t_count];
        let done = dispatch_loop(
            cg,
            &ranks,
            &mut tentative,
            &mut preds,
            &mut start,
            &mut wait,
            &mut progress,
            &mut fronts,
            &mut bests,
            &mut makespan,
        );
        if done != redispatched_tasks {
            return Err(GraphError::Cycle);
        }
    }

    Ok((
        CompiledSim {
            start_ns: start,
            wait_ns: wait,
            thread_end: progress,
            makespan_ns: makespan,
        },
        WindowedStats {
            windows,
            certified_windows,
            redispatched_windows: windows - certified_windows,
            rollbacks: usize::from(cut != u64::MAX),
            certified_tasks: committed_tasks,
            redispatched_tasks,
            engaged: true,
        },
    ))
}

/// Heap-free FIFO-topological speculation: O(V+E), no comparisons beyond
/// per-edge maxes. Estimated starts are monotone along each thread's
/// sequence (`est_start >= previous est_fin` by the progress update), and
/// `est_tent` is the *final* dependency-ready time because a task is
/// only popped once every predecessor has relaxed it.
fn presim(cg: &CompiledGraph) -> Result<Presim, GraphError> {
    let n = cg.len();
    let t_count = cg.thread_count();
    let mut preds = cg.pred_counts();
    let mut tentative = vec![0u64; n];
    let mut est_start = vec![0u64; n];
    let mut est_tent = vec![0u64; n];
    let mut est_fin = vec![0u64; n];
    let mut progress = vec![0u64; t_count];
    let mut seqs: Vec<Vec<u32>> = vec![Vec::new(); t_count];

    let mut queue: Vec<u32> = (0..n as u32).filter(|&i| preds[i as usize] == 0).collect();
    let mut head = 0usize;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let ui = u as usize;
        let t = cg.thread_of(CompactId(u)).0 as usize;
        est_tent[ui] = tentative[ui];
        let s = tentative[ui].max(progress[t]);
        est_start[ui] = s;
        let fin = s + cg.cost_ns(CompactId(u));
        est_fin[ui] = fin;
        progress[t] = fin;
        seqs[t].push(u);
        for &v in cg.successors(CompactId(u)) {
            let vi = v.0 as usize;
            tentative[vi] = tentative[vi].max(fin);
            preds[vi] -= 1;
            if preds[vi] == 0 {
                queue.push(v.0);
            }
        }
    }
    if queue.len() != n {
        return Err(GraphError::Cycle);
    }
    Ok(Presim {
        est_start,
        est_tent,
        est_fin,
        seqs,
    })
}

/// Certifies the speculation against the greedy dispatch rule and returns
/// the earliest instant the serial execution could diverge from it
/// (`u64::MAX` when it provably cannot — then the speculation *is* the
/// serial schedule).
///
/// Per thread, scanning the speculated sequence backward with suffix
/// minima over `(ready, rank, id)` and `(rank, id)`:
///
/// * **consistency** — each start must equal `max(ready, prev finish)`;
///   a mismatch corrupts at the smaller of the two values;
/// * **idle gaps** (prev finish < start) — a later task `v` with
///   `(ready_v, rank_v, v) < (start, rank_u, u)` would have been
///   dispatched inside the gap; the schedule corrupts at
///   `max(prev finish, ready_v)`. This check is exact: `ready` values
///   below the corruption cut are genuine finish-time maxima.
/// * **same-instant ties** (prev finish == start) — a later task with a
///   smaller `(rank, id)` *may* have won the tie; conservatively flag at
///   the start. Over-flagging costs re-dispatch work, never correctness.
fn verify(p: &Presim, ranks: &[Rank]) -> u64 {
    let mut cut = u64::MAX;
    for seq in &p.seqs {
        let mut min_tent: (u64, Rank, u32) = (u64::MAX, (u64::MAX, u64::MAX), u32::MAX);
        let mut min_rank: (Rank, u32) = ((u64::MAX, u64::MAX), u32::MAX);
        for i in (0..seq.len()).rev() {
            let u = seq[i];
            let ui = u as usize;
            let s = p.est_start[ui];
            let pf = if i == 0 {
                0
            } else {
                p.est_fin[seq[i - 1] as usize]
            };
            let expected = p.est_tent[ui].max(pf);
            if s != expected {
                cut = cut.min(s.min(expected));
            } else if pf < s {
                if min_tent < (s, ranks[ui], u) {
                    cut = cut.min(pf.max(min_tent.0));
                }
            } else if min_rank < (ranks[ui], u) {
                cut = cut.min(s);
            }
            let cand = (p.est_tent[ui], ranks[ui], u);
            if cand < min_tent {
                min_tent = cand;
            }
            let cand = (ranks[ui], u);
            if cand < min_rank {
                min_rank = cand;
            }
        }
    }
    cut
}

/// Inner window boundaries: quantiles of a strided sample of the
/// speculated starts, deduplicated, zero excluded (a boundary at 0 would
/// make the first window empty). Ascending; `len + 1` windows.
fn window_boundaries(est_start: &[u64], windows: usize) -> Vec<u64> {
    if windows <= 1 || est_start.is_empty() {
        return Vec::new();
    }
    let stride = (est_start.len() / 4096).max(1);
    let mut sample: Vec<u64> = est_start.iter().step_by(stride).copied().collect();
    sample.sort_unstable();
    let mut boundaries: Vec<u64> = (1..windows)
        .map(|i| sample[i * sample.len() / windows])
        .collect();
    boundaries.dedup();
    boundaries.retain(|&b| b > 0);
    boundaries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DependencyGraph;
    use crate::sim::simulate_compiled;
    use crate::task::{ExecThread, Task, TaskKind};
    use crate::DepKind;
    use daydream_trace::{CpuThreadId, DeviceId, StreamId};

    /// The `sim_scale` bench family: CPU launch chain, 4 GPU stream
    /// chains, one collective channel — per-thread id order.
    fn synthetic(steps: usize) -> CompiledGraph {
        let mut g = DependencyGraph::new();
        let cpu = ExecThread::Cpu(CpuThreadId(0));
        let chan = ExecThread::Comm(crate::task::CommChannel::Collective);
        let mut prev_launch = None;
        let mut prev_kernel = [None; 4];
        for i in 0..steps {
            let stream = (i % 4) as u32;
            let launch = g.add_task(Task::new("launch", TaskKind::CpuWork, cpu, 4_000));
            let kernel = g.add_task(Task::new(
                "kernel",
                TaskKind::GpuKernel,
                ExecThread::Gpu(DeviceId(0), StreamId(stream)),
                30_000,
            ));
            let comm = g.add_task(Task::new(
                "allreduce",
                TaskKind::Communication {
                    prim: crate::task::CommPrimitive::AllReduce,
                    bytes: 1 << 20,
                },
                chan,
                45_000,
            ));
            if let Some(p) = prev_launch {
                g.add_dep(p, launch, DepKind::CpuSeq);
            }
            if let Some(p) = prev_kernel[stream as usize] {
                g.add_dep(p, kernel, DepKind::GpuSeq);
            }
            g.add_dep(launch, kernel, DepKind::Correlation);
            g.add_dep(kernel, comm, DepKind::Comm);
            prev_launch = Some(launch);
            prev_kernel[stream as usize] = Some(kernel);
        }
        CompiledGraph::compile(&g)
    }

    fn forced() -> WindowedOptions {
        WindowedOptions {
            windows: 6,
            min_tasks: 0,
        }
    }

    #[test]
    fn windowed_matches_serial_and_certifies() {
        let cg = synthetic(400);
        let serial = simulate_compiled(&cg).unwrap();
        let (win, stats) = simulate_windowed_with(&cg, &EarliestStart, &forced()).unwrap();
        assert_eq!(win, serial);
        assert!(stats.engaged);
        assert_eq!(stats.rollbacks, 0, "replay-shaped graph must certify");
        assert_eq!(stats.certified_tasks, cg.len());
    }

    #[test]
    fn below_min_tasks_runs_serial() {
        let cg = synthetic(40);
        let serial = simulate_compiled(&cg).unwrap();
        let (win, stats) =
            simulate_windowed_with(&cg, &EarliestStart, &WindowedOptions::default()).unwrap();
        assert_eq!(win, serial);
        assert!(!stats.engaged);
    }

    #[test]
    fn window_count_never_affects_the_result() {
        let cg = synthetic(300);
        let serial = simulate_compiled(&cg).unwrap();
        for windows in [1, 2, 7, 1000] {
            let opts = WindowedOptions {
                windows,
                min_tasks: 0,
            };
            let (win, _) = simulate_windowed_with(&cg, &EarliestStart, &opts).unwrap();
            assert_eq!(win, serial, "windows={windows}");
        }
    }

    /// The commit/rollback safety net must be falsifiable: corrupt the
    /// speculated starts (a bogus window seeded from a bad boundary) and
    /// the certification has to catch it — rolling back to the serial
    /// loop instead of committing a wrong schedule.
    #[test]
    fn corrupted_speculation_rolls_back_and_stays_identical() {
        let cg = synthetic(400);
        let serial = simulate_compiled(&cg).unwrap();
        let victim = cg.len() / 2;
        let (win, stats) = simulate_windowed_corrupted(&cg, &EarliestStart, &forced(), &|est| {
            est[victim] += 123_456;
        })
        .unwrap();
        assert!(stats.rollbacks > 0, "corruption must be detected");
        assert!(stats.redispatched_tasks > 0);
        assert_eq!(win, serial, "rollback must restore the serial schedule");
    }

    #[test]
    fn corruption_to_zero_rolls_back_everything_yet_matches() {
        let cg = synthetic(200);
        let serial = simulate_compiled(&cg).unwrap();
        let (win, stats) = simulate_windowed_corrupted(&cg, &EarliestStart, &forced(), &|est| {
            for s in est.iter_mut() {
                *s = 0;
            }
        })
        .unwrap();
        assert!(stats.rollbacks > 0);
        assert_eq!(stats.certified_tasks, 0);
        assert_eq!(win, serial);
    }

    #[test]
    fn cycle_reported() {
        let mut g = DependencyGraph::new();
        let cpu = ExecThread::Cpu(CpuThreadId(0));
        let a = g.add_task(Task::new("a", TaskKind::CpuWork, cpu, 10));
        let b = g.add_task(Task::new("b", TaskKind::CpuWork, cpu, 10));
        g.add_dep(a, b, DepKind::CpuSeq);
        g.add_dep(b, a, DepKind::CpuSeq);
        let cg = CompiledGraph::compile(&g);
        let opts = WindowedOptions {
            windows: 0,
            min_tasks: 0,
        };
        assert!(matches!(
            simulate_windowed_with(&cg, &EarliestStart, &opts),
            Err(GraphError::Cycle)
        ));
    }
}
