//! Runtime simulation (paper Algorithm 1, Phase 4).
//!
//! Traverses the dependency graph, dispatching each ready task to its
//! execution thread and advancing per-thread progress by `duration + gap`.
//! The scheduling policy is pluggable on the full path (paper §4.4
//! "Schedule" primitive): the default picks the frontier task with the
//! earliest feasible start; P3 overrides the tie-break on communication
//! channels.
//!
//! # The hot path
//!
//! [`simulate`] freezes the graph into a [`CompiledGraph`] and runs a
//! per-thread frontier in O((V+E) log V + V·T) over T execution threads:
//!
//! * every candidate is one **packed `u128` key**, `start << 64 |
//!   dense_rank << 32 | task`, where a task's dense rank is its position
//!   in the policy's `(rank, task id)` order. Dense ranks are distinct,
//!   so comparing keys orders candidates by start, then exactly as the
//!   policy would, ties included. Under the default order the dense rank
//!   is the task id itself, so no rank array exists; other orders sort
//!   their ranks into a dense-rank array ([`FrontierOrder::dense_ranks`]),
//!   once per plan for P3 and once per call on [`simulate_compiled_with`];
//! * each execution thread keeps a **two-tier frontier**: a `pending`
//!   min-heap of keys over tentative starts for tasks whose
//!   dependency-induced start is still ahead of the thread's progress, and
//!   a `ready` min-heap of the keys' low halves (`dense_rank << 32 |
//!   task`) for tasks the thread could start immediately. When progress
//!   advances, pending entries whose tentative start has been overtaken
//!   migrate to `ready` (each task migrates at most once). A lone task
//!   stays in an inline slot with both heaps empty, so a thread holding
//!   one task at a time dispatches without touching a heap;
//! * each thread's best candidate key, over its feasible start, is
//!   **cached** in a flat array, and each dispatch takes the minimum by a
//!   linear scan — O(T) per dispatch, and zoo graphs have 4–8 threads.
//!   Only the dispatching thread's entry is recomputed; a task released
//!   onto another thread can only lower that thread's entry (its
//!   progress did not move), so one comparison keeps it exact.
//!
//! This dispatches exactly the same task sequence as the quadratic
//! reference loop ([`simulate_reference`]), which refreshes every frontier
//! candidate against thread progress on each step and linear-scans for the
//! minimum: within one thread all ready candidates share the thread's
//! progress as feasible start (ordered by rank), pending candidates are
//! ordered by their fixed tentative starts, and the cross-thread minimum
//! is the global one. The reference loop is retained as the oracle for the
//! equivalence proptests and the `sim_scale` benchmark.
//!
//! # Chain threads and choice threads
//!
//! A thread is a **chain** when each of its tasks, except the first, has
//! the thread's previous task among its direct predecessors: the launch
//! thread and every GPU stream of a profiled iteration are, and so is
//! every thread a patch edits through the thread-sequence primitives.
//! On a chain at most one task is released at a time, and the thread's
//! progress is the finish of that task's own thread predecessor, which
//! its tentative start already covers. So each of its tasks starts at
//! its latest predecessor finish, whatever the dispatch order: Algorithm
//! 1 has a choice only on a thread that holds two released tasks at once.
//! In the catalog only the threads a what-if adds do (DDP's collective
//! channel, BlueConnect's stages, vDNN's copy stream and thread, P3's
//! push and pull channels), and the compute stream DGC inserts its
//! compression kernels onto without chaining them.
//!
//! Every simulation (the full simulator, the capture, the warm cone and
//! full paths, P3's plans) therefore seeds one `SimBufs` arena and
//! drains it with one loop, `SimBufs::drain`, which reads and writes
//! only that arena's rows and keeps a frontier only on the **choice
//! threads** its caller names. A task released on a choice thread joins
//! that thread's frontier; one released on any other thread joins a FIFO
//! queue and starts at `max(tentative, progress)`. The loop takes the
//! best frontier key only when the queue is empty. With no choice thread
//! it is one topological sweep, at about half the kernel's cost per
//! task; with every thread one, it is the frontier kernel above. Its run
//! is the kernel's when two conditions hold:
//!
//! * **(a) every other thread is a chain.** The loop checks it: it marks
//!   every queued thread on which it takes a task whose previous task
//!   there, in the loop's order, is not one of its direct predecessors.
//!   The verdict depends only on the graph's structure, so a marked
//!   thread reruns once as a choice thread. In a cone, each thread's
//!   first task has nothing before it in the loop's order and is not
//!   checked, which is sound: every later task there must directly
//!   depend on the one before it.
//! * **(b) no zero-cost queued task with a successor ranks above a task
//!   on a choice thread.** The queue runs ahead of frontier picks the
//!   kernel makes first, but a queued task releases its successors at
//!   its finish: after a candidate's start if it starts later, and at
//!   that same instant, if it starts with the candidate, only when it
//!   costs nothing. Then, if it ranks above the candidate, the kernel
//!   dispatches the candidate before it and only afterwards releases a
//!   successor that might rank below the candidate on its thread, which
//!   the loop would already hold. The loop checks this as well, and where
//!   it fails every thread becomes a choice thread. P3's order ranks
//!   every compute task below every transfer, and the catalog's only
//!   zero-cost tasks (`cudaDeviceSynchronize` calls) have no successor,
//!   so neither fails it.
//!
//! The callers name their choice threads from what they know of the
//! graph. [`Schedule::capture`] names none, and records whether the
//! base kept them all ([`Schedule::is_chain_threaded`]). The warm cone
//! and full paths of [`simulate_warm_with`] over a chain-threaded base
//! name the threads the base lacks and, when there are any, every base
//! thread the patch inserts a task onto; a patch that adds no thread
//! (Gist, which splices into the stream) runs as the sweep. Over any
//! other base they name every thread. A P3 plan names the threads its
//! build's sweep marks (`ReplaySeed`), its push and pull channels, once
//! per plan, for the runs that do not go copy by copy (below).
//! [`simulate_compiled`] names every thread: it stays the kernel, the
//! oracle the others are pinned to.
//!
//! # P3 plans run copy by copy
//!
//! A P3 plan (`whatif::P3Plan`) unrolls the profile into copies, each a
//! range of compact ids, and inserts push and pull transfers on two
//! channels between one copy's backward pass and the next copy's forward
//! pass. Only those two channels give Algorithm 1 a choice, so the plan
//! has no need of the dispatch loop's queue, predecessor counts, stamps
//! or chain check. Its build's sweep times the first copy once, and
//! `ReplaySeed` keeps that timing and the order of a run that times the
//! rest one copy at a time. Each evaluation
//! (`SimScratch::simulate_retimed`) seeds the later tasks' tentative
//! starts and the threads' progress from the first copy and then, copy
//! by copy:
//!
//! * walks the copy's compute tasks (from copy 1) in the build sweep's
//!   FIFO order, as the retime replay walks its order: each starts at
//!   its tentative start and posts its finish to its successors;
//! * then, channel by channel, pushes before pulls, puts the copy's
//!   transfers on that thread's frontier at their release times and
//!   drains it by the kernel's per-thread pick, earliest feasible start
//!   and then dense rank, posting each finish to the successors.
//!
//! That is the kernel's run. A compute task on a chain starts at its
//! latest predecessor finish, whatever the dispatch order. The kernel
//! dispatches in nondecreasing start order, so when a channel picks at
//! time `s`, every transfer released by `s` is already on its frontier,
//! unless its release comes at `s` itself from a task that costs nothing
//! and that the kernel dispatches after the pick. So a channel's picks
//! depend only on its own transfers' release times and ranks:
//! single-machine list scheduling, which the drain runs with every
//! transfer of the copy on the frontier at once, as a transfer released
//! later than a pick could not have won it. Once per plan, in O(V+E),
//! `ReplaySeed::build` checks:
//!
//! 1. the first copy replays: it is closed under predecessors and its
//!    threads are chains, so each of its tasks starts at its latest
//!    predecessor finish, whatever the transfers cost, where the build's
//!    sweep starts it (checks 2 and 3 cover both);
//! 2. the sweep marked exactly the transfers' threads: every compute
//!    thread is a chain, and no compute task shares a channel;
//! 3. every edge runs forward in the run's order: into a compute task of
//!    copy `k` only from compute tasks of copies up to `k` or from
//!    transfers of earlier copies, into a transfer of copy `q` only from
//!    compute tasks of copies up to `q` or from transfers of copy `q` on
//!    an earlier channel, so each task's predecessors are timed before
//!    it;
//! 4. every compute task that costs nothing ranks below every transfer:
//!    at any instant the kernel dispatches every compute task that starts
//!    then, a chain of zero-cost ones that releases a transfer included,
//!    before a channel picks.
//!
//! And each run checks, as it goes:
//!
//! 5. no transfer that costs nothing has a successor that is a transfer
//!    or costs nothing: a zero-wire push could release its pull, directly
//!    or through a zero-cost compute task, at the very instant of a pick
//!    that the kernel makes before it dispatches the push;
//! 6. on each channel, every transfer of a copy is released strictly
//!    after the last start of the earlier copies' transfers there, so the
//!    kernel too picks it only after those.
//!
//! Where a build check fails, every run of the plan, and where a run's
//! check fails, that run, is the dispatch loop over the whole plan, its
//! rows written from the first task, with a frontier on the plan's choice
//! threads. `whatif::P3Scheduler` ranks every compute task below every
//! transfer, and the catalog's plans pass every check on every cluster.
//!
//! # Retimes keep the structure
//!
//! A patch that only retimes (AMP, a GPU upgrade, a batch-size change:
//! no insert, removal, edge override or thread move) keeps the base's
//! tasks, threads and edges. Over a chain-threaded base every thread is
//! still a chain, so every task still starts at its latest predecessor
//! finish, and every topological order of the base is one of the
//! patched graph. The capture keeps one in [`Schedule`]'s start order:
//! the sweep's FIFO queue, stably sorted by start. On an
//! edge `u → v`, `v` starts no earlier than `u` finishes, so either `u`
//! starts first, or `u` costs nothing and starts with `v`; then the FIFO
//! took `u` first (taking it released `v`), and the stable sort keeps it
//! first. When such a patch's cone is over the budget, the full fallback
//! of [`simulate_warm_with`] writes the patch's durations into the
//! arena's dense cost and duration rows and walks that order once
//! (`SimBufs::run_replay`): each task starts at the latest finish its
//! predecessors posted, and its thread's progress is its thread
//! predecessor's finish, walked before it. No overlay, queue,
//! predecessor count or chain check is needed: the chains are the
//! base's, which the capture checked. The starts, waits, thread ends
//! and makespan are the sweep's over the applied graph, so the kernel's.
//!
//! # Patches that only add threads
//!
//! DDP and BlueConnect insert communication tasks on channels the
//! profile never used, fed by backward kernels and feeding the weight
//! update, and leave the base's tasks and the edges among them alone. A
//! patch over a chain-threaded base that inserts tasks only on threads
//! the base lacks, removes, retimes and moves no base task, and changes
//! no edge between two base tasks keeps every base thread a chain, so
//! every base task still starts at its latest predecessor finish: its
//! start is a longest path, from the base's sources and from the
//! inserted tasks that feed it. Call a base task with an inserted
//! predecessor an **entry**, `I_e` the latest finish among entry `e`'s
//! inserted predecessors, and `tail(e)` the longest path from `e`'s
//! start to any end it reaches, its own end included, which
//! [`Schedule::capture`] records per task in one reverse pass over the
//! start order. By max-plus superposition a base task starts at the
//! later of its base start and, over the entries `e` that reach it,
//! `I_e` plus the longest path from `e` to it, so the patched makespan
//! is
//!
//! `max(base makespan, max over entries e of (I_e + tail(e)), latest end
//! of an inserted task)`.
//!
//! The inserted tasks are timed alone, by the dispatch loop over the
//! overlay with a frontier on each of their threads: each starts owing
//! its inserted predecessors, ready at its base predecessors' captured
//! finishes, and the entries owe more predecessors than they have, so
//! the loop never releases one and only posts `I_e` to it. That is the
//! kernel's run of the inserted tasks exactly when their base
//! predecessors keep their captured finishes, that is when none of them
//! descends from an entry (the entry included): a task on a fresh thread
//! waits only on its predecessors and on its own thread, and a base task
//! released at the same instant as an inserted task is picked ranks
//! above it (every inserted task has a larger view id), so the kernel
//! releases it first. Each call checks that with a search from the
//! entries over base successors; starts only grow along edges, so it
//! stops past the latest start of a base predecessor of an inserted
//! task. Where it reaches one (vDNN, whose prefetches wait on backward
//! kernels; a patch that closes a cycle through the base), the call
//! goes on to the cone bound below. The path costs O(|patch|) plus the
//! search, and reports itself as incremental with the inserted tasks
//! re-dispatched ([`IncrementalStats::entries`]);
//! [`SimScratch::materialize`] replays the base's start order with each
//! entry ready no earlier than its `I_e`.
//!
//! # Warm evaluation
//!
//! [`simulate_warm_with`] answers a what-if from a captured base
//! [`Schedule`] without applying its patch: retimes, thread moves,
//! inserts and removals are all read through an epoch-stamped overlay on
//! the base [`CompiledGraph`], and only the cone of tasks the patch can
//! affect is re-dispatched; a patch that only adds threads times only
//! its own tasks (above), and a retime-only patch whose cone is over the
//! budget replays the base's order instead (above), and builds no
//! overlay. It runs the default order only. The overlay
//! keeps the base's thread ids and interns a patch's new threads after
//! them, so the captured schedule's per-thread rows stay valid for every
//! patch, also one that leaves a base thread without tasks: the cone's
//! size alone decides whether the full path runs instead
//! ([`DEFAULT_MAX_CONE_FRACTION`]). Its oracle is the full path:
//! [`simulate_compiled`] over `CompiledGraph::apply`, which
//! [`simulate_reference`] pins in turn. That overlay is the one
//! reader of a patch's delta against a compiled base: `apply` compacts
//! it, and [`SimScratch::thread_busy_after`] sums costs through it, so
//! the tests pin it to the op-log replay
//! (`GraphPatch::apply_reference` recompiled). The same [`SimScratch`]
//! arena also serves P3's simulations of its cached plans
//! (`whatif::P3Plan::steady_iteration_ns`), which write the cluster's
//! transfer times into arena-owned cost and duration rows and run copy
//! by copy after the plan's first copy (above); the retime replay writes
//! the same rows, through the same writer.

use crate::compiled::{CompactId, CompiledGraph, ThreadId};
use crate::graph::{DependencyGraph, GraphError, TaskId};
use crate::patch::{GraphPatch, NetDelta};
use crate::task::ExecThread;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Secondary dispatch key: breaks ties among candidates feasible at the
/// same instant. Lower ranks dispatch first; ranks must be fixed per task
/// for the whole simulation.
pub type Rank = (u64, u64);

/// Scheduling policy over the compiled frontier (paper §4.4 "Schedule").
///
/// The frontier always dispatches the candidate with the smallest
/// `(feasible_start, rank, task id)` triple; a policy only chooses the
/// rank. The default [`EarliestStart`] ranks by task id, reproducing
/// Algorithm 1's "earliest start, ties by id" exactly; P3 ranks
/// communication tasks by priority. Only the full path takes a policy:
/// [`simulate_compiled_with`] converts it to dense ranks per call, and
/// `whatif::P3Plan` once per plan. The warm cone path
/// ([`simulate_warm_with`]) always runs the default order.
pub trait FrontierOrder {
    /// The tie-break rank of `task`.
    fn rank(&self, graph: &CompiledGraph, task: CompactId) -> Rank;

    /// The order in the form the kernel dispatches by: each task's dense
    /// rank, its position in the `(rank, task id)` order over `graph`, or
    /// `None` when that position is the task id itself, so no rank array
    /// is built. The provided method sorts every task's rank once;
    /// override it only to return `None` for an order by id.
    fn dense_ranks(&self, graph: &CompiledGraph) -> Option<Vec<u32>> {
        let mut by_rank: Vec<(Rank, u32)> = (0..graph.len() as u32)
            .map(|i| (self.rank(graph, CompactId(i)), i))
            .collect();
        // Keys are unique, so any sort gives one answer; the stable sort
        // merges ascending runs, and in id order a P3 plan's ranks fall
        // into at most a few hundred (compute tasks by id, transfers
        // grouped by layer) over thousands of tasks.
        by_rank.sort();
        let mut dense = vec![0u32; by_rank.len()];
        for (pos, &(_, i)) in by_rank.iter().enumerate() {
            dense[i as usize] = pos as u32;
        }
        Some(dense)
    }
}

/// The default policy: earliest feasible start, ties broken by task id
/// (paper: "picks the task with the earliest start").
#[derive(Debug, Default, Clone, Copy)]
pub struct EarliestStart;

impl FrontierOrder for EarliestStart {
    fn rank(&self, _graph: &CompiledGraph, task: CompactId) -> Rank {
        (task.0 as u64, 0)
    }

    /// Compact ids ascend with `TaskId`s, and so do the warm overlay's
    /// view ids, so the id is the dense rank on both paths.
    fn dense_ranks(&self, _graph: &CompiledGraph) -> Option<Vec<u32>> {
        None
    }
}

/// A frontier candidate, `start << 64 | dense_rank << 32 | task`:
/// comparing keys compares starts, then dense ranks, which are distinct.
type Key = u128;

/// The [`Key`] of a thread with an empty frontier. It compares above
/// every real candidate: no task has compact id `u32::MAX`.
const IDLE: Key = u128::MAX;

/// No task: no compact id is `u32::MAX`.
const NO_TASK: u32 = u32::MAX;

/// A key's low half, `dense_rank << 32 | task`, with the dense rank read
/// from `ranks` (`None`: the task id, the default order).
#[inline]
fn low_key(ranks: Option<&[u32]>, task: u32) -> u64 {
    let rank = ranks.map_or(task, |r| r[task as usize]);
    (rank as u64) << 32 | task as u64
}

/// The key of `low` at `start`.
#[inline]
fn key(start: u64, low: u64) -> Key {
    (start as u128) << 64 | low as u128
}

/// The start a key carries.
#[inline]
fn start_of(k: Key) -> u64 {
    (k >> 64) as u64
}

/// Output of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Simulated start time of each task (`None` for removed tasks).
    pub start_ns: Vec<Option<u64>>,
    /// End of the last task — the predicted iteration time.
    pub makespan_ns: u64,
    /// Final progress of each execution thread.
    pub thread_end: BTreeMap<ExecThread, u64>,
    /// Per-task wait between thread availability and actual start (time the
    /// thread sat idle before the task, e.g. a CPU blocked on the GPU).
    pub wait_ns: Vec<u64>,
}

impl SimResult {
    /// Predicted iteration time in milliseconds.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ns as f64 / 1e6
    }

    /// Simulated start of one task.
    ///
    /// # Panics
    ///
    /// Panics if the task was removed from the graph before simulation.
    pub fn start_of(&self, id: TaskId) -> u64 {
        self.start_ns[id.0].expect("task was removed before simulation")
    }
}

/// Dense simulation output over a [`CompiledGraph`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSim {
    /// Start time per compact task.
    pub start_ns: Vec<u64>,
    /// Idle wait per compact task.
    pub wait_ns: Vec<u64>,
    /// Final progress per interned thread.
    pub thread_end: Vec<u64>,
    /// End of the last task.
    pub makespan_ns: u64,
}

impl CompiledSim {
    /// Expands dense results back to arena-indexed [`SimResult`] form.
    pub fn into_sim_result(self, graph: &CompiledGraph) -> SimResult {
        let mut start = vec![None; graph.arena_len()];
        let mut wait = vec![0u64; graph.arena_len()];
        for i in 0..self.start_ns.len() {
            let c = CompactId(i as u32);
            let id = graph.task_id(c);
            start[id.0] = Some(self.start_ns[i]);
            wait[id.0] = self.wait_ns[i];
        }
        let thread_end = self
            .thread_end
            .iter()
            .enumerate()
            .map(|(t, &end)| (graph.exec_thread(ThreadId(t as u32)), end))
            .collect();
        SimResult {
            start_ns: start,
            makespan_ns: self.makespan_ns,
            thread_end,
            wait_ns: wait,
        }
    }
}

/// One execution thread's frontier: `ready` holds the low key halves of
/// tasks startable at the thread's current progress, `pending` the keys
/// of tasks whose dependency-induced start is still in the thread's
/// future, at that start.
///
/// Most threads are chains — the launch thread and each GPU stream hold
/// exactly one task after every push — so a lone task stays inline in
/// `solo` with both heaps empty, and a chain dispatch touches no heap.
/// A second push spills the slot into the tier it belongs to at the
/// current progress.
#[derive(Debug)]
struct ThreadFrontier {
    /// The only task's key at its tentative start, or [`IDLE`]; a task
    /// only while both heaps are empty.
    solo: Key,
    pending: BinaryHeap<Reverse<Key>>,
    ready: BinaryHeap<Reverse<u64>>,
}

impl Default for ThreadFrontier {
    fn default() -> Self {
        ThreadFrontier {
            solo: IDLE,
            pending: BinaryHeap::new(),
            ready: BinaryHeap::new(),
        }
    }
}

impl ThreadFrontier {
    /// Migrates pending tasks overtaken by `progress` into the ready tier.
    #[inline]
    fn refresh(&mut self, progress: u64) {
        while let Some(&Reverse(k)) = self.pending.peek() {
            if start_of(k) > progress {
                break;
            }
            self.pending.pop();
            self.ready.push(Reverse(k as u64));
        }
    }

    /// The thread's best candidate key at its feasible start, or [`IDLE`]
    /// if the frontier is empty. Call [`ThreadFrontier::refresh`] first.
    #[inline]
    fn best(&self, progress: u64) -> Key {
        if self.solo != IDLE {
            // What the heaps would report for their only entry.
            return self.solo.max(key(progress, self.solo as u64));
        }
        if let Some(&Reverse(low)) = self.ready.peek() {
            return key(progress, low);
        }
        self.pending.peek().map_or(IDLE, |&Reverse(k)| k)
    }

    /// Inserts a newly dispatchable task by its key's low half.
    #[inline]
    fn push(&mut self, tentative: u64, low: u64, progress: u64) {
        let k = key(tentative, low);
        if self.solo != IDLE {
            let solo = std::mem::replace(&mut self.solo, IDLE);
            self.push_heap(solo, progress);
        } else if self.ready.is_empty() && self.pending.is_empty() {
            self.solo = k;
            return;
        }
        self.push_heap(k, progress);
    }

    #[inline]
    fn push_heap(&mut self, k: Key, progress: u64) {
        if start_of(k) <= progress {
            self.ready.push(Reverse(k as u64));
        } else {
            self.pending.push(Reverse(k));
        }
    }

    /// Removes the current best (after [`ThreadFrontier::refresh`]).
    #[inline]
    fn pop_best(&mut self) {
        if self.solo != IDLE {
            self.solo = IDLE;
        } else if self.ready.pop().is_none() {
            self.pending.pop();
        }
    }

    /// Empties the frontier, retaining heap capacity for reuse.
    #[inline]
    fn clear(&mut self) {
        self.solo = IDLE;
        self.pending.clear();
        self.ready.clear();
    }
}

/// The graph surface [`SimBufs::drain`] and its seeding read — everything
/// the frontier needs to seed and dispatch a task and release its
/// successors. Implemented by [`CompiledGraph`] itself, by
/// [`OverlayView`], the copy-on-write overlay that serves any patch
/// without materializing an applied graph, and by [`RetimedView`], a
/// compiled graph with arena-owned cost and duration rows. The loop is
/// monomorphized per implementation, so the compiled hot path is
/// unchanged.
trait SimGraphView {
    /// The task id space: every id below it is a task or a removed slot.
    fn len(&self) -> usize;
    fn thread_count(&self) -> usize;
    fn cost_ns(&self, c: CompactId) -> u64;
    fn duration_ns(&self, c: CompactId) -> u64;
    fn thread_of(&self, c: CompactId) -> ThreadId;
    fn successors(&self, c: CompactId) -> &[CompactId];
    fn pred_count(&self, c: CompactId) -> u32;
    /// `false` for a removed slot, which is never seeded.
    fn is_live(&self, _i: usize) -> bool {
        true
    }
}

impl SimGraphView for CompiledGraph {
    // Inherent methods shadow the trait methods, so each delegation below
    // resolves to the inherent accessor (no recursion).
    #[inline]
    fn len(&self) -> usize {
        CompiledGraph::len(self)
    }
    #[inline]
    fn thread_count(&self) -> usize {
        CompiledGraph::thread_count(self)
    }
    #[inline]
    fn cost_ns(&self, c: CompactId) -> u64 {
        CompiledGraph::cost_ns(self, c)
    }
    #[inline]
    fn duration_ns(&self, c: CompactId) -> u64 {
        CompiledGraph::duration_ns(self, c)
    }
    #[inline]
    fn thread_of(&self, c: CompactId) -> ThreadId {
        CompiledGraph::thread_of(self, c)
    }
    #[inline]
    fn successors(&self, c: CompactId) -> &[CompactId] {
        CompiledGraph::successors(self, c)
    }
    #[inline]
    fn pred_count(&self, c: CompactId) -> u32 {
        CompiledGraph::pred_count(self, c)
    }
}

/// A compiled graph whose cost and duration rows are arena-owned copies
/// with some tasks retimed ([`SimScratch::write_retimed`]): what P3's
/// plan runs ([`SimScratch::simulate_retimed`]) and the warm retime
/// replay time, so retiming never clones the graph.
struct RetimedView<'a> {
    graph: &'a CompiledGraph,
    cost: &'a [u64],
    dur: &'a [u64],
}

impl SimGraphView for RetimedView<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.graph.len()
    }
    #[inline]
    fn thread_count(&self) -> usize {
        self.graph.thread_count()
    }
    #[inline]
    fn cost_ns(&self, c: CompactId) -> u64 {
        self.cost[c.0 as usize]
    }
    #[inline]
    fn duration_ns(&self, c: CompactId) -> u64 {
        self.dur[c.0 as usize]
    }
    #[inline]
    fn thread_of(&self, c: CompactId) -> ThreadId {
        self.graph.thread_of(c)
    }
    #[inline]
    fn successors(&self, c: CompactId) -> &[CompactId] {
        self.graph.successors(c)
    }
    #[inline]
    fn pred_count(&self, c: CompactId) -> u32 {
        self.graph.pred_count(c)
    }
}

/// Simulates the graph with the default earliest-start policy.
pub fn simulate(graph: &DependencyGraph) -> Result<SimResult, GraphError> {
    simulate_with(graph, &EarliestStart)
}

/// Simulates the graph with a custom frontier policy (Algorithm 1).
pub fn simulate_with<O: FrontierOrder>(
    graph: &DependencyGraph,
    order: &O,
) -> Result<SimResult, GraphError> {
    let cg = CompiledGraph::compile(graph);
    Ok(simulate_compiled_with(&cg, order)?.into_sim_result(&cg))
}

/// Simulates a compiled graph with the default policy, every thread a
/// choice thread (the frontier kernel): the oracle every other run of
/// the dispatch loop is pinned to.
pub fn simulate_compiled(graph: &CompiledGraph) -> Result<CompiledSim, GraphError> {
    simulate_compiled_with(graph, &EarliestStart)
}

/// Simulates a compiled graph under `order`, converted to dense ranks
/// for this call ([`FrontierOrder::dense_ranks`]).
pub fn simulate_compiled_with<O: FrontierOrder>(
    cg: &CompiledGraph,
    order: &O,
) -> Result<CompiledSim, GraphError> {
    let mut bufs = SimBufs::sized_for(cg);
    bufs.choice.fill(true);
    let run = bufs.run_full(cg, order.dense_ranks(cg).as_deref(), 0);
    bufs.into_sim(cg, run)
}

/// Test and bench hook: `cg` simulated under `order` by the dispatch
/// loop with `choice` (a flag per thread) as its choice threads, and the
/// choice threads the run ended with, wider than `choice` where a check
/// failed (module docs). With no choice thread it is the chain sweep
/// [`Schedule::capture`] runs.
#[doc(hidden)]
pub fn simulate_compiled_mixed<O: FrontierOrder>(
    cg: &CompiledGraph,
    order: &O,
    choice: &[bool],
) -> Result<(CompiledSim, Vec<bool>), GraphError> {
    let mut bufs = SimBufs::sized_for(cg);
    bufs.choice.copy_from_slice(choice);
    let run = bufs.run_full(cg, order.dense_ranks(cg).as_deref(), 0);
    let choice = bufs.choice.clone();
    Ok((bufs.into_sim(cg, run)?, choice))
}

// ---------------------------------------------------------------------------
// Incremental cone re-simulation
// ---------------------------------------------------------------------------

/// A captured base simulation plus the acceleration indices incremental
/// re-simulation needs: the dispatch sequence sorted by start,
/// per-thread timelines, per-task predecessor
/// arrays sorted by predecessor start with running-max finishes (whose
/// last entry is the task's ready time), and, on a chain-threaded base,
/// each task's tail, what the thread-insert path adds to a delayed
/// entry (module docs). Built once per base profile
/// ([`Schedule::capture`]); every patched scenario then reuses the
/// schedule to replay the unaffected prefix verbatim and re-dispatch
/// only its cone.
///
/// The indices make cutoff seeding sublinear in the prefix: thread
/// progress at a cutoff is one binary search per thread, and a suffix
/// task's remaining-predecessor count and seeded tentative start are one
/// binary search over its sorted predecessor segment. On a
/// chain-threaded base the start order is also a topological order, which
/// the retime replay walks (module docs).
#[derive(Debug, Clone)]
pub struct Schedule {
    /// The base simulation output (dense, compiled-space).
    sim: CompiledSim,
    /// Every thread of the base is a chain: the sweep alone simulated it.
    chain_threaded: bool,
    /// Task ids sorted by start time (the dispatch sequence up to
    /// same-instant ties, which a time cutoff never splits). On a
    /// chain-threaded base, the sweep's FIFO sequence stably sorted, so
    /// a topological order in which each thread's tasks keep their
    /// dispatch order; otherwise `0..n` sorted unstably.
    by_start: Vec<u32>,
    /// `makespan_prefix[i]` = max `start + duration` over `by_start[..i]`.
    makespan_prefix: Vec<u64>,
    /// Per-thread timeline CSR offsets into `tl_start`/`tl_fin`.
    tl_off: Vec<u32>,
    /// Per-thread task starts in `by_start` order.
    tl_start: Vec<u64>,
    /// Per-thread running max of task finishes in `by_start` order
    /// (monotone per thread).
    tl_fin: Vec<u64>,
    /// Per-task predecessor CSR offsets into `pred_start`/`pred_fin_max`.
    pred_off: Vec<u32>,
    /// Predecessor starts per task, ascending within each segment.
    pred_start: Vec<u64>,
    /// Running max of predecessor finishes along `pred_start` order.
    pred_fin_max: Vec<u64>,
    /// Per task of a chain-threaded base (empty otherwise): its tail, the
    /// longest path from its start to any end it reaches, its own end
    /// included. A task delayed to start `d` later delays its
    /// descendants by at most `d`, so no task it reaches ends after its
    /// new start plus its tail: the thread-insert path adds it to each
    /// entry's delayed start (module docs).
    tail_ns: Vec<u64>,
}

impl Schedule {
    /// Simulates `cg` under the default policy and builds the
    /// incremental-seeding indices. O(V log V + E log E) once per base.
    /// The simulation is the dispatch loop with no choice thread, the
    /// chain sweep (module docs); a thread it marks reruns as a choice
    /// thread, and [`Schedule::is_chain_threaded`] records whether any
    /// did.
    pub fn capture(cg: &CompiledGraph) -> Result<Schedule, GraphError> {
        let mut bufs = SimBufs::sized_for(cg);
        let run = bufs.run_full(cg, None, 0);
        let chain_threaded = !bufs.choice.contains(&true);
        // A run with no choice thread leaves every task in its queue, in
        // the order it took them.
        let mut by_start = std::mem::take(&mut bufs.queue);
        let sim = bufs.into_sim(cg, run)?;
        let n = cg.len();
        // When the thread moves past a task.
        let fin_ns = |i: usize| sim.start_ns[i] + cg.cost_ns(CompactId(i as u32));

        if chain_threaded {
            // Stable: a zero-cost task keeps its place before the
            // successor it ties on start (module docs).
            by_start.sort_by_key(|&i| sim.start_ns[i as usize]);
        } else {
            by_start.clear();
            by_start.extend(0..n as u32);
            by_start.sort_unstable_by_key(|&i| sim.start_ns[i as usize]);
        }
        let mut makespan_prefix = Vec::with_capacity(n + 1);
        makespan_prefix.push(0u64);
        let mut running = 0u64;
        for &i in &by_start {
            running = running.max(sim.start_ns[i as usize] + cg.duration_ns(CompactId(i)));
            makespan_prefix.push(running);
        }

        // Per-thread timelines in start order. Finishes are stored as a
        // running max per segment: serial execution makes them monotone
        // already *except* on a kernel-captured base, when a zero-cost
        // task ties a same-thread neighbour on start and the unstable
        // by-start sort orders the tie against dispatch order —
        // `progress_at` must still see the true thread progress. A
        // chain-threaded base's stable sort keeps each thread's dispatch
        // order, so there the max changes nothing.
        let t_count = cg.thread_count();
        let mut tl_off = Vec::with_capacity(t_count + 1);
        tl_off.push(0u32);
        for (t, &count) in cg.thread_tasks.iter().enumerate() {
            tl_off.push(tl_off[t] + count);
        }
        let mut cursor: Vec<u32> = tl_off[..t_count].to_vec();
        let mut tl_start = vec![0u64; n];
        let mut tl_fin = vec![0u64; n];
        for &i in &by_start {
            let t = cg.thread_of(CompactId(i)).0 as usize;
            let slot = cursor[t] as usize;
            cursor[t] += 1;
            tl_start[slot] = sim.start_ns[i as usize];
            tl_fin[slot] = if slot > tl_off[t] as usize {
                fin_ns(i as usize).max(tl_fin[slot - 1])
            } else {
                fin_ns(i as usize)
            };
        }

        // Predecessor CSR (inverted from the successor CSR), each segment
        // sorted by predecessor start with a running max of finishes: one
        // binary search then seeds a suffix task's remaining-predecessor
        // count and tentative start.
        let mut pred_off = vec![0u32; n + 1];
        for u in 0..n {
            for &v in cg.successors(CompactId(u as u32)) {
                pred_off[v.0 as usize + 1] += 1;
            }
        }
        for i in 0..n {
            pred_off[i + 1] += pred_off[i];
        }
        let e = *pred_off.last().unwrap_or(&0) as usize;
        let mut cursor: Vec<u32> = pred_off[..n].to_vec();
        let mut pred_task = vec![0u32; e];
        for u in 0..n {
            for &v in cg.successors(CompactId(u as u32)) {
                let slot = cursor[v.0 as usize] as usize;
                cursor[v.0 as usize] += 1;
                pred_task[slot] = u as u32;
            }
        }
        let mut pred_start = vec![0u64; e];
        let mut pred_fin_max = vec![0u64; e];
        for v in 0..n {
            let seg = pred_off[v] as usize..pred_off[v + 1] as usize;
            pred_task[seg.clone()].sort_unstable_by_key(|&p| sim.start_ns[p as usize]);
            let mut running = 0u64;
            for s in seg {
                let p = pred_task[s] as usize;
                pred_start[s] = sim.start_ns[p];
                running = running.max(fin_ns(p));
                pred_fin_max[s] = running;
            }
        }

        // Tails, in one reverse pass over the start order, which is
        // topological on a chain-threaded base: a task's tail is its own
        // end or its finish plus a successor's tail.
        let mut tail_ns = Vec::new();
        if chain_threaded {
            tail_ns.resize(n, 0u64);
            for &i in by_start.iter().rev() {
                let c = CompactId(i);
                let after = cg
                    .successors(c)
                    .iter()
                    .map(|&w| tail_ns[w.0 as usize])
                    .max();
                tail_ns[i as usize] = after
                    .map_or(0, |t| cg.cost_ns(c) + t)
                    .max(cg.duration_ns(c));
            }
        }

        Ok(Schedule {
            sim,
            chain_threaded,
            by_start,
            makespan_prefix,
            tl_off,
            tl_start,
            tl_fin,
            pred_off,
            pred_start,
            pred_fin_max,
            tail_ns,
        })
    }

    /// Number of tasks the schedule covers.
    pub fn len(&self) -> usize {
        self.sim.start_ns.len()
    }

    /// `true` if the schedule covers no tasks.
    pub fn is_empty(&self) -> bool {
        self.sim.start_ns.is_empty()
    }

    /// The base simulation's makespan.
    pub fn makespan_ns(&self) -> u64 {
        self.sim.makespan_ns
    }

    /// The captured base simulation.
    pub fn sim(&self) -> &CompiledSim {
        &self.sim
    }

    /// `true` if every thread of the base is a chain (module docs), so
    /// the capture ran as one topological sweep. The full fallbacks of
    /// [`simulate_warm_with`] then replay the start order for a patch
    /// that only retimes, and its runs keep frontiers only where the
    /// patch adds a thread.
    pub fn is_chain_threaded(&self) -> bool {
        self.chain_threaded
    }

    /// Index of the first dispatch at or after `cutoff` in start order.
    fn first_suffix(&self, cutoff: u64) -> usize {
        self.by_start
            .partition_point(|&i| self.sim.start_ns[i as usize] < cutoff)
    }

    /// When `task` became ready in the base run: the latest finish of
    /// its predecessors, the last running maximum of its segment, or 0
    /// if it has none.
    fn ready_ns(&self, task: usize) -> u64 {
        let seg = self.pred_off[task] as usize..self.pred_off[task + 1] as usize;
        seg.last().map_or(0, |last| self.pred_fin_max[last])
    }

    /// Thread progress after every dispatch strictly before `cutoff`.
    fn progress_at(&self, thread: usize, cutoff: u64) -> u64 {
        let seg = self.tl_off[thread] as usize..self.tl_off[thread + 1] as usize;
        let idx = self.tl_start[seg.clone()].partition_point(|&s| s < cutoff);
        if idx == 0 {
            0
        } else {
            self.tl_fin[seg.start + idx - 1]
        }
    }

    /// Splits a task's predecessors at `cutoff`: how many dispatch at or
    /// after it (still owed in the continuation) and the max finish of
    /// those already replayed (the seeded tentative start).
    fn pred_split(&self, task: usize, cutoff: u64) -> (u32, u64) {
        let seg = self.pred_off[task] as usize..self.pred_off[task + 1] as usize;
        let idx = self.pred_start[seg.clone()].partition_point(|&s| s < cutoff);
        let remaining = (seg.len() - idx) as u32;
        let tentative = if idx == 0 {
            0
        } else {
            self.pred_fin_max[seg.start + idx - 1]
        };
        (remaining, tentative)
    }
}

/// The cone budget of [`simulate_warm`]: a cone above this fraction of
/// the patched graph's tasks runs the full path. Past roughly three
/// quarters of the graph, seeding overhead cancels the skipped prefix.
pub const DEFAULT_MAX_CONE_FRACTION: f64 = 0.75;

/// Work accounting of one warm simulation. The full path has one
/// cause, a cone over the budget ([`simulate_warm_with`]'s
/// `max_cone_fraction`), so a missing cutoff is the whole record of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalStats {
    /// Tasks the simulator actually dispatched (the cone on the
    /// incremental path, the inserted tasks on the thread-insert path;
    /// every task on a full fallback).
    pub redispatched: usize,
    /// Live tasks in the patched graph.
    pub total: usize,
    /// The divergence cutoff: every base dispatch strictly before this
    /// instant was replayed verbatim (`None` when the cone was over the
    /// budget and the full path ran; `u64::MAX` when the patch had no
    /// simulation-relevant effect). On the thread-insert path, the
    /// earliest start of an inserted task or base start of an entry.
    pub cutoff_ns: Option<u64>,
    /// `Some` when the thread-insert path ran (module docs, "Patches that
    /// only add threads"): how many entries, base tasks with an inserted
    /// predecessor, added their captured tails to the base makespan.
    pub entries: Option<usize>,
}

impl IncrementalStats {
    /// `true` when the cone path ran (no full fallback).
    pub fn is_incremental(&self) -> bool {
        self.cutoff_ns.is_some()
    }

    /// Fraction of tasks re-dispatched.
    pub fn cone_fraction(&self) -> f64 {
        self.redispatched as f64 / self.total.max(1) as f64
    }
}

/// The patch-influence cutoff and re-dispatch cone size over the base
/// schedule, derived from the *unapplied* patch — base, delta, and
/// schedule only: the whole decision surface of the warm path's size
/// threshold.
///
/// The cutoff is sound because dispatches happen in nondecreasing start
/// order: every candidate created by a dispatch at time `s` has feasible
/// start ≥ `s`, so the first behavioral divergence between base and
/// patched simulations cannot precede the minimum over per-change
/// influence bounds — a retime acts from the task's base start, a thread
/// change from its dependency-ready time, a removal from the start of the
/// vacated slot, an insertion from its predecessors' finishes, and an
/// edge rewire from the earlier of the target's base start and its
/// loosest new readiness. The default order ignores priority, so a
/// priority edit has no effect.
struct ConeBound {
    /// Earliest instant any patch effect can surface (`u64::MAX` when
    /// the patch has no simulation-relevant effect).
    cutoff: u64,
    /// Index of the first base dispatch at or after `cutoff`.
    cut_idx: usize,
    /// Tasks the cone path would re-dispatch.
    cone: usize,
    /// Live tasks of the patched graph (base − removed + inserted).
    n_new: usize,
}

/// The [`ConeBound`] of `patch`, or `None` once its cone is over
/// `max_cone_fraction` of the patched graph's tasks. The cone is every
/// base dispatch at or after the cutoff, less the removed tasks (all of
/// them there) plus the inserted ones, so it is over the budget exactly
/// when the cutoff is at or before one base start, the threshold, fixed
/// before the first effect is read. The running cutoff only falls, so
/// the bound returns as soon as it reaches the threshold.
fn cone_bound(
    base: &CompiledGraph,
    schedule: &Schedule,
    patch: &GraphPatch,
    ins: &mut InsertBounds,
    max_cone_fraction: f64,
) -> Option<ConeBound> {
    let d = patch.delta();
    let base_cap = patch.base_capacity();
    let base_compact = |id: TaskId| -> usize {
        base.compact_of(id)
            .expect("patched task must be live in the base")
            .0 as usize
    };
    // When a base task's thread moves past it in the base run.
    let fin = |c: usize| schedule.sim.start_ns[c] + base.cost_ns(CompactId(c as u32));

    let removed_live = d.removed_ids().iter().filter(|id| id.0 < base_cap).count();
    let inserted_live = d.new_ids().iter().filter(|&&v| !d.is_removed(v)).count();
    let n_new = base.len() - removed_live + inserted_live;
    // The cone is over the budget once `over` base dispatches are in
    // it: a cutoff at or before the start of dispatch `len - over`, below
    // `below`, stops the bound. With `over` at most 0 every effect does
    // (`below` `u64::MAX`); a budget no cone can exceed stops nothing
    // (`below` 0).
    let max_cone = (max_cone_fraction * n_new as f64).floor();
    let below = if max_cone.is_finite() && max_cone < n_new as f64 {
        let over = max_cone as i64 + 1 + removed_live as i64 - inserted_live as i64;
        match usize::try_from(schedule.by_start.len() as i64 - over) {
            _ if over <= 0 => u64::MAX,
            Ok(j) => schedule.sim.start_ns[schedule.by_start[j] as usize] + 1,
            Err(_) => 0,
        }
    } else {
        0
    };
    let mut cutoff = u64::MAX;
    let mut lower = |at: u64| {
        cutoff = cutoff.min(at);
        cutoff < below
    };

    // --- Cutoff: the earliest instant any patch effect can surface. ---
    for &id in d.touched() {
        if id.0 >= base_cap || d.is_removed(id) {
            continue;
        }
        let c = base_compact(id);
        let s = d.scalars(id).expect("touched task has a slot");
        // A retime dispatches identically but finishes differently:
        // effects start no earlier than the task's own dispatch. A
        // placement change can move the task's own dispatch, but never
        // before its dependencies allow.
        if ((s.duration_ns.is_some() || s.gap_ns.is_some()) && lower(schedule.sim.start_ns[c]))
            || (s.thread.is_some() && lower(schedule.ready_ns(c)))
        {
            return None;
        }
    }
    for &id in d.removed_ids() {
        // The vacated thread slot opens where the base dispatched it.
        if id.0 < base_cap && lower(schedule.sim.start_ns[base_compact(id)]) {
            return None;
        }
    }
    ins.compute(d, base_cap, |id| fin(base_compact(id)));
    for (i, &v) in d.new_ids().iter().enumerate() {
        if !d.is_removed(v) && lower(ins.bound[i]) {
            return None;
        }
    }
    // A predecessor gates its successor at its *finish*: earliest
    // dispatch plus cost for inserted tasks, the scheduled finish for
    // base tasks.
    let fin_lb_of = |p: TaskId| -> u64 {
        match p.0.checked_sub(base_cap) {
            Some(i) => ins.bound[i] + ins.cost[i],
            None => fin(base_compact(p)),
        }
    };
    for id in d.pred_overlay_ids() {
        if id.0 >= base_cap || d.is_removed(id) {
            continue; // inserted tasks are covered by their bounds
        }
        // The rewired task can become ready as early as its loosest new
        // predecessor finish, or miss its base dispatch slot entirely.
        let list = d.pred_over(id).expect("overlay id has a list");
        let ready_lb = list.iter().map(|&(p, _)| fin_lb_of(p)).max().unwrap_or(0);
        if lower(ready_lb.min(schedule.sim.start_ns[base_compact(id)])) {
            return None;
        }
    }

    if cutoff == u64::MAX {
        return Some(ConeBound {
            cutoff,
            cut_idx: schedule.by_start.len(),
            cone: 0,
            n_new,
        });
    }

    // --- Cone sizing. ---
    let cut_idx = schedule.first_suffix(cutoff);
    let cone = (schedule.by_start.len() - cut_idx) - removed_live + inserted_live;
    let over_budget = cone as f64 > max_cone_fraction * n_new as f64;
    (!over_budget).then_some(ConeBound {
        cutoff,
        cut_idx,
        cone,
        n_new,
    })
}

/// `true` if `d`, a patch's delta over `base`, is one the thread-insert
/// path serves (module docs, "Patches that only add threads"): it
/// inserts at least one task, each on a thread `base` lacks, removes,
/// retimes and moves no base task, and leaves the edges between base
/// tasks as they are. Reads only the delta, in O(|patch|): every change
/// to an edge between base tasks overrides the successor list of its
/// source, whose base entries must then be its base successors.
fn adds_only_threads(base: &CompiledGraph, d: &NetDelta, base_cap: usize) -> bool {
    let compact = |id: TaskId| {
        base.compact_of(id)
            .expect("patched task must be live in the base")
    };
    let base_thread =
        |t: ExecThread| (0..base.thread_count() as u32).any(|k| base.exec_thread(ThreadId(k)) == t);
    if d.removed_ids().iter().any(|id| id.0 < base_cap) {
        return false;
    }
    let mut inserts = false;
    for &id in d.touched() {
        let s = d.scalars(id).expect("touched task has a slot");
        if id.0 >= base_cap {
            if !d.is_removed(id) {
                if s.thread.is_some_and(base_thread) {
                    return false;
                }
                inserts = true;
            }
            continue;
        }
        let c = compact(id);
        let moved = s
            .thread
            .is_some_and(|t| t != base.exec_thread(base.thread_of(c)));
        if moved || s.duration_ns.is_some_and(|dur| dur != base.duration_ns(c)) {
            return false;
        }
    }
    inserts
        && d.edge_ids().iter().all(|&id| {
            let Some(list) = d.succ_over(id).filter(|_| id.0 < base_cap) else {
                return true;
            };
            let succs = base.successors(compact(id));
            let mut kept = 0;
            for &(w, _) in list.iter().filter(|(w, _)| w.0 < base_cap) {
                if !succs.iter().any(|&x| base.task_id(x) == w) {
                    return false;
                }
                kept += 1;
            }
            kept == succs.len()
        })
}

/// Per-thread busy time (sum of [`CompiledGraph::cost_ns`]) of a
/// compiled graph, indexed by interned `ThreadId`: the base sums
/// [`SimScratch::thread_busy_after`] adjusts by a patch.
pub fn thread_busy_ns(g: &CompiledGraph) -> Vec<u64> {
    let mut busy = vec![0u64; g.thread_count()];
    for i in 0..g.len() as u32 {
        let c = CompactId(i);
        busy[g.thread_of(c).0 as usize] += g.cost_ns(c);
    }
    busy
}

/// Earliest-dispatch lower bounds (and thread costs) for a patch's
/// inserted tasks, indexed like `new_ids`: each can start no earlier
/// than the finishes of its base predecessors and the (bound + cost) of
/// its inserted predecessors, propagated in topological order over the
/// inserted-only subgraph. Tasks on a cycle (an invalid patch the full
/// simulation will reject) keep the conservative bound 0. The buffers
/// are reused across evaluations.
#[derive(Debug, Default)]
struct InsertBounds {
    bound: Vec<u64>,
    cost: Vec<u64>,
    indeg: Vec<u32>,
    queue: Vec<u32>,
}

impl InsertBounds {
    fn compute(&mut self, d: &NetDelta, base_cap: usize, base_fin: impl Fn(TaskId) -> u64) {
        let new_ids = d.new_ids();
        let k = new_ids.len();
        for v in [&mut self.bound, &mut self.cost] {
            v.clear();
            v.resize(k, 0);
        }
        self.indeg.clear();
        self.indeg.resize(k, 0);
        self.queue.clear();
        for (i, &v) in new_ids.iter().enumerate() {
            let s = d.scalars(v).expect("inserted task has a slot");
            self.cost[i] = s.duration_ns.unwrap_or(0) + s.gap_ns.unwrap_or(0);
            for &(p, _) in d.pred_over(v).unwrap_or_default() {
                if p.0 >= base_cap {
                    self.indeg[i] += 1;
                } else {
                    self.bound[i] = self.bound[i].max(base_fin(p));
                }
            }
            if self.indeg[i] == 0 {
                self.queue.push(i as u32);
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let i = self.queue[head] as usize;
            head += 1;
            // New ids are dense after the base arena.
            for &(s, _) in d.succ_over(new_ids[i]).unwrap_or_default() {
                if let Some(j) = s.0.checked_sub(base_cap) {
                    self.bound[j] = self.bound[j].max(self.bound[i] + self.cost[i]);
                    self.indeg[j] -= 1;
                    if self.indeg[j] == 0 {
                        self.queue.push(j as u32);
                    }
                }
            }
        }
        for i in 0..k {
            if self.indeg[i] > 0 {
                self.bound[i] = 0;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Warm evaluation: epoch-stamped scratch arenas
// ---------------------------------------------------------------------------

/// [`Overlay::row`] start of a slot that reads its successors from the
/// base CSR.
const BASE_ROW: u32 = u32::MAX;

/// The shape of the patched graph an [`Overlay`] serves.
#[derive(Debug, Clone, Copy, Default)]
struct ViewShape {
    /// Base tasks: view ids below this are base compact ids.
    n_base: usize,
    /// The view id space: `n_base` plus the live inserted tasks.
    n: usize,
    /// Live tasks: `n` minus the removed base tasks.
    live: usize,
    /// The base's threads plus the threads only the patch uses.
    t_count: usize,
}

/// A patch as copy-on-write overrides over the base [`CompiledGraph`],
/// built in O(|patch|) per evaluation — what lets the warm path simulate
/// any patch, inserts and removals included, without applying it. It is
/// the one reader of a patch's delta against a compiled base:
/// `CompiledGraph::apply` compacts it ([`Overlay::compact`]) and the
/// search's busy bound sums costs through it.
///
/// **View ids.** Base task `c` keeps its compact id; the `k`-th live
/// inserted task gets `n_base + k`. Removed base tasks keep their id but
/// carry a dead stamp and are never seeded. View ids therefore sort
/// exactly like the applied graph's compact ids (live base tasks in
/// `TaskId` order, then the inserts), so every tie-break matches.
/// Threads the base never used are interned after the base's threads.
///
/// **Slots.** `stamp[i] == epoch` marks an overridden slot, whose
/// `cost`/`dur`/`thread`/`pcnt`/`row` are all valid (copied from
/// the base where the patch left a field alone); every other slot reads
/// through to the base. Removal dirties every neighbour, so an
/// unstamped base row never points at a removed task. "Resetting" the
/// overlay is bumping the epoch — O(1), no clearing.
#[derive(Debug, Default)]
struct Overlay {
    stamp: Vec<u32>,
    cost: Vec<u64>,
    dur: Vec<u64>,
    thread: Vec<u32>,
    /// Predecessor count (read for seeding and by `apply`).
    pcnt: Vec<u32>,
    /// Successor range in `side`, or `(BASE_ROW, _)` for the base row.
    row: Vec<(u32, u32)>,
    /// `dead[c] == epoch` marks a base task the patch removed.
    dead: Vec<u32>,
    /// The successor lists the patch overrides, in view ids.
    side: Vec<CompactId>,
    /// View id per inserted task (`new_ids` order), `u32::MAX` when the
    /// patch removed it again.
    ins_view: Vec<u32>,
    /// Threads the base never interned, in view order, each with the
    /// smallest task id placed on it — its interning position in a real
    /// apply.
    new_threads: Vec<(ExecThread, TaskId)>,
    /// Live tasks per view thread.
    live_per_thread: Vec<u32>,
    /// [`cone_bound`]'s inserted-task bounds.
    ins: InsertBounds,
    /// The shape of the last build.
    shape: ViewShape,
}

impl Overlay {
    /// Sizes the per-slot arrays for `n` view ids; `true` if they grew.
    fn ensure(&mut self, n: usize) -> bool {
        if self.stamp.len() >= n {
            return false;
        }
        // Fresh stamps are 0 == never current (epochs start at 1).
        self.stamp.resize(n, 0);
        self.dead.resize(n, 0);
        self.cost.resize(n, 0);
        self.dur.resize(n, 0);
        self.thread.resize(n, 0);
        self.pcnt.resize(n, 0);
        self.row.resize(n, (BASE_ROW, 0));
        true
    }

    /// Stamps slot `i` with base task `i`'s state unless it is already
    /// current.
    #[inline]
    fn activate_base(&mut self, base: &CompiledGraph, i: usize, epoch: u32) {
        if self.stamp[i] != epoch {
            let c = CompactId(i as u32);
            self.stamp[i] = epoch;
            self.cost[i] = base.cost_ns(c);
            self.dur[i] = base.duration_ns(c);
            self.thread[i] = base.thread_of(c).0;
            self.pcnt[i] = base.pred_count(c);
            self.row[i] = (BASE_ROW, 0);
        }
    }

    /// The view thread of `t`, interning it after the base's threads on
    /// first sight; `id` is a live task placed on it.
    fn intern(&mut self, base: &CompiledGraph, t: ExecThread, id: TaskId) -> u32 {
        let t_base = base.thread_count();
        if let Some(i) = (0..t_base).find(|&i| base.exec_thread(ThreadId(i as u32)) == t) {
            return i as u32;
        }
        match self.new_threads.iter().position(|&(x, _)| x == t) {
            Some(k) => {
                let first = &mut self.new_threads[k].1;
                *first = (*first).min(id);
                (t_base + k) as u32
            }
            None => {
                self.new_threads.push((t, id));
                self.live_per_thread.push(0);
                (t_base + self.new_threads.len() - 1) as u32
            }
        }
    }

    /// The execution thread behind view thread `t`.
    fn exec_thread(&self, base: &CompiledGraph, t: u32) -> ExecThread {
        match (t as usize).checked_sub(base.thread_count()) {
            Some(k) => self.new_threads[k].0,
            None => base.exec_thread(ThreadId(t)),
        }
    }

    /// The view id of a live task of the patched graph.
    #[inline]
    fn view_of(&self, base: &CompiledGraph, base_cap: usize, id: TaskId) -> usize {
        if id.0 >= base_cap {
            self.ins_view[id.0 - base_cap] as usize
        } else {
            base.compact_of(id)
                .expect("patched task must be live in the base")
                .0 as usize
        }
    }

    /// Builds the overlay of `d` over `base` in O(|patch| + threads),
    /// sizing the slot arrays first; `true` if they grew.
    fn build(&mut self, base: &CompiledGraph, d: &NetDelta, base_cap: usize, epoch: u32) -> bool {
        let grew = self.ensure(base.len() + d.new_ids().len());
        let n_base = base.len();
        let t_base = base.thread_count();
        self.side.clear();
        self.ins_view.clear();
        self.new_threads.clear();
        self.live_per_thread.clear();
        self.live_per_thread.extend_from_slice(&base.thread_tasks);

        let mut n = n_base;
        for &v in d.new_ids() {
            if d.is_removed(v) {
                self.ins_view.push(u32::MAX);
            } else {
                self.ins_view.push(n as u32);
                n += 1;
            }
        }
        let mut removed = 0usize;
        for &id in d.removed_ids() {
            // Inserted-then-removed tasks have no base compact id.
            if let Some(c) = base.compact_of(id) {
                self.dead[c.0 as usize] = epoch;
                self.live_per_thread[base.thread_of(c).0 as usize] -= 1;
                removed += 1;
            }
        }

        // Scalar overrides: retimed and moved base tasks, and every
        // inserted task (whose slot carries every field). Priorities are
        // not read: the default order ranks by id alone.
        for &id in d.touched() {
            if d.is_removed(id) {
                continue;
            }
            let s = d.scalars(id).expect("touched task has a slot");
            let i = self.view_of(base, base_cap, id);
            if id.0 >= base_cap {
                self.stamp[i] = epoch;
                self.pcnt[i] = 0;
                self.row[i] = (0, 0);
            } else {
                self.activate_base(base, i, epoch);
            }
            let dur = s.duration_ns.unwrap_or_else(|| self.dur[i]);
            let gap = s.gap_ns.unwrap_or_else(|| self.cost[i] - self.dur[i]);
            self.cost[i] = dur + gap;
            self.dur[i] = dur;
            if let Some(t) = s.thread {
                let ti = self.intern(base, t, id);
                if id.0 < base_cap {
                    self.live_per_thread[self.thread[i] as usize] -= 1;
                }
                self.live_per_thread[ti as usize] += 1;
                self.thread[i] = ti;
            }
        }

        // Adjacency overrides, translated to view ids. Removed tasks are
        // detached from every list, so each target has a view id.
        for &id in d.edge_ids() {
            if d.is_removed(id) {
                continue;
            }
            let i = self.view_of(base, base_cap, id);
            if id.0 < base_cap {
                self.activate_base(base, i, epoch);
            }
            if let Some(list) = d.pred_over(id) {
                self.pcnt[i] = list.len() as u32;
            }
            if let Some(list) = d.succ_over(id) {
                let lo = self.side.len() as u32;
                for &(to, _) in list {
                    debug_assert!(!d.is_removed(to), "overlay edge to a removed task");
                    let v = self.view_of(base, base_cap, to);
                    self.side.push(CompactId(v as u32));
                }
                self.row[i] = (lo, self.side.len() as u32);
            }
        }

        self.shape = ViewShape {
            n_base,
            n,
            live: n - removed,
            t_count: t_base + self.new_threads.len(),
        };
        grew
    }

    fn view<'a>(&'a self, base: &'a CompiledGraph, epoch: u32) -> OverlayView<'a> {
        OverlayView {
            base,
            ov: self,
            epoch,
        }
    }

    /// The applied graph's order, which `CompiledGraph::apply` builds
    /// and [`SimScratch::materialize`] reports in: its live view ids in
    /// compact order, and its threads as view threads in interning order
    /// (the base threads the patch leaves tasks on, then the fresh ones
    /// by the first task placed on each).
    fn applied_order(&self, epoch: u32) -> (impl Iterator<Item = usize> + '_, Vec<u32>) {
        let shape = self.shape;
        let t_base = shape.t_count - self.new_threads.len();
        let mut fresh: Vec<(TaskId, u32)> = (t_base as u32..)
            .zip(&self.new_threads)
            .map(|(t, &(_, first))| (first, t))
            .collect();
        fresh.sort_unstable();
        let threads = (0..t_base as u32)
            .filter(|&t| self.live_per_thread[t as usize] > 0)
            .chain(fresh.into_iter().map(|(_, t)| t))
            .collect();
        let live = (0..shape.n).filter(move |&i| i >= shape.n_base || self.dead[i] != epoch);
        (live, threads)
    }

    /// Compacts the patched graph of the last build into a
    /// [`CompiledGraph`] in [`Overlay::applied_order`]. Every row reads
    /// through the view except priorities, which the default order never
    /// reads, so the overlay does not carry them: they come from the
    /// delta's scalars here.
    fn compact(&self, base: &CompiledGraph, d: &NetDelta, epoch: u32) -> CompiledGraph {
        let view = self.view(base, epoch);
        let shape = self.shape;
        let (live, order) = self.applied_order(epoch);
        let mut thread_at = vec![0u32; shape.t_count];
        for (k, &t) in order.iter().enumerate() {
            thread_at[t as usize] = k as u32;
        }
        let mut inserted = d.new_ids().iter().filter(|&&v| !d.is_removed(v));
        let mut compact_at = vec![u32::MAX; shape.n];
        let mut task_ids = Vec::with_capacity(shape.live);
        let mut thread_of = Vec::with_capacity(shape.live);
        let mut cost_ns = Vec::with_capacity(shape.live);
        let mut duration_ns = Vec::with_capacity(shape.live);
        let mut priority = Vec::with_capacity(shape.live);
        let mut pred_count = Vec::with_capacity(shape.live);
        for i in live {
            let c = CompactId(i as u32);
            compact_at[i] = task_ids.len() as u32;
            let id = if i < shape.n_base {
                base.task_id(c)
            } else {
                *inserted.next().expect("a view id per live insert")
            };
            task_ids.push(id);
            thread_of.push(ThreadId(thread_at[view.thread_of(c).0 as usize]));
            cost_ns.push(view.cost_ns(c));
            duration_ns.push(view.duration_ns(c));
            priority.push(match d.scalars(id).and_then(|s| s.priority) {
                Some(p) => p,
                None => base.priority(c),
            });
            pred_count.push(view.pred_count(c));
        }
        let mut succ_off = Vec::with_capacity(shape.live + 1);
        let mut succ = Vec::with_capacity(base.edge_count());
        succ_off.push(0u32);
        for i in (0..shape.n).filter(|&i| compact_at[i] != u32::MAX) {
            for &v in view.successors(CompactId(i as u32)) {
                succ.push(CompactId(compact_at[v.0 as usize]));
            }
            succ_off.push(succ.len() as u32);
        }
        let threads: Vec<ExecThread> = order.iter().map(|&t| self.exec_thread(base, t)).collect();
        CompiledGraph {
            task_ids,
            arena_len: base.arena_len() + d.new_ids().len(),
            threads,
            thread_tasks: order
                .iter()
                .map(|&t| self.live_per_thread[t as usize])
                .collect(),
            thread_of,
            cost_ns,
            duration_ns,
            priority,
            succ_off,
            succ,
            pred_count,
        }
    }
}

/// `CompiledGraph::apply_traced`: the overlay of `patch` over `base`,
/// compacted, and whether the compaction dropped a base thread the patch
/// left without tasks.
pub(crate) fn apply_overlay(base: &CompiledGraph, patch: &GraphPatch) -> (CompiledGraph, bool) {
    let mut ov = Overlay::default();
    let d = patch.delta();
    // A fresh overlay's stamps are 0, so epoch 1 is current.
    ov.build(base, d, patch.base_capacity(), 1);
    let vacated = ov.live_per_thread[..base.thread_count()].contains(&0);
    (ov.compact(base, d, 1), vacated)
}

/// A patched graph served straight off the base [`CompiledGraph`] plus
/// the epoch-stamped [`Overlay`].
struct OverlayView<'a> {
    base: &'a CompiledGraph,
    ov: &'a Overlay,
    epoch: u32,
}

impl OverlayView<'_> {
    /// The overridden slot of `c`, if the patch touched it.
    #[inline]
    fn slot(&self, c: CompactId) -> Option<usize> {
        let i = c.0 as usize;
        (self.ov.stamp[i] == self.epoch).then_some(i)
    }
}

impl SimGraphView for OverlayView<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.ov.shape.n
    }
    #[inline]
    fn thread_count(&self) -> usize {
        self.ov.shape.t_count
    }
    #[inline]
    fn cost_ns(&self, c: CompactId) -> u64 {
        match self.slot(c) {
            Some(i) => self.ov.cost[i],
            None => self.base.cost_ns(c),
        }
    }
    #[inline]
    fn duration_ns(&self, c: CompactId) -> u64 {
        match self.slot(c) {
            Some(i) => self.ov.dur[i],
            None => self.base.duration_ns(c),
        }
    }
    #[inline]
    fn thread_of(&self, c: CompactId) -> ThreadId {
        match self.slot(c) {
            Some(i) => ThreadId(self.ov.thread[i]),
            None => self.base.thread_of(c),
        }
    }
    #[inline]
    fn successors(&self, c: CompactId) -> &[CompactId] {
        if let Some(i) = self.slot(c) {
            let (lo, hi) = self.ov.row[i];
            if lo != BASE_ROW {
                return &self.ov.side[lo as usize..hi as usize];
            }
        }
        self.base.successors(c)
    }
    #[inline]
    fn pred_count(&self, c: CompactId) -> u32 {
        match self.slot(c) {
            Some(i) => self.ov.pcnt[i],
            None => self.base.pred_count(c),
        }
    }
    /// `false` for a base task the patch removed.
    #[inline]
    fn is_live(&self, i: usize) -> bool {
        i >= self.ov.shape.n_base || self.ov.dead[i] != self.epoch
    }
}

/// The reusable per-simulation working arrays. Task-indexed slots carry
/// a generation stamp (`stamp[i] == epoch` ⇒ written this evaluation);
/// heaps retain their capacity across runs.
#[derive(Debug, Default)]
struct SimBufs {
    stamp: Vec<u32>,
    start: Vec<u64>,
    wait: Vec<u64>,
    tentative: Vec<u64>,
    preds: Vec<u32>,
    progress: Vec<u64>,
    fronts: Vec<ThreadFrontier>,
    bests: Vec<Key>,
    /// Per thread: `true` for a choice thread, whose released tasks wait
    /// on its frontier; the others' join `queue` (module docs). The
    /// caller sets it before a run; a run that reruns widens it.
    choice: Vec<bool>,
    /// The FIFO of released tasks on the other threads, in the order
    /// [`SimBufs::drain`] took them.
    queue: Vec<u32>,
    /// The last task the loop took from the queue per thread, or
    /// [`NO_TASK`].
    last: Vec<u32>,
    /// Per thread: `true` if the last pass marked it to rerun as a choice
    /// thread: a queued thread that is no chain (condition (a) of the
    /// module docs), or every thread where condition (b) failed.
    marked: Vec<bool>,
}

impl SimBufs {
    /// Fresh buffers for one simulation of `cg`, with no choice thread.
    fn sized_for(cg: &CompiledGraph) -> SimBufs {
        let mut bufs = SimBufs::default();
        bufs.ensure(cg.len(), cg.thread_count());
        bufs
    }

    /// The [`CompiledSim`] of a full run over `cg` on fresh buffers.
    fn into_sim(
        self,
        cg: &CompiledGraph,
        (done, makespan): (usize, u64),
    ) -> Result<CompiledSim, GraphError> {
        if done != cg.len() {
            return Err(GraphError::Cycle);
        }
        Ok(CompiledSim {
            start_ns: self.start,
            wait_ns: self.wait,
            thread_end: self.progress,
            makespan_ns: makespan,
        })
    }

    /// Sizes the buffers for `n` tasks on `t_count` threads; `true` if
    /// any grew.
    fn ensure(&mut self, n: usize, t_count: usize) -> bool {
        let mut grew = false;
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.start.resize(n, 0);
            self.wait.resize(n, 0);
            self.tentative.resize(n, 0);
            self.preds.resize(n, 0);
            grew = true;
        }
        if self.fronts.len() < t_count {
            self.fronts.resize_with(t_count, ThreadFrontier::default);
            self.bests.resize(t_count, IDLE);
            self.progress.resize(t_count, 0);
            self.choice.resize(t_count, false);
            self.last.resize(t_count, NO_TASK);
            self.marked.resize(t_count, false);
            grew = true;
        }
        grew
    }

    /// Stamps view task `i` with its seeded state and, once it owes no
    /// predecessor, releases it: onto its thread's frontier on a choice
    /// thread, into the queue otherwise.
    #[inline]
    fn seed<G: SimGraphView>(
        &mut self,
        view: &G,
        ranks: Option<&[u32]>,
        i: u32,
        rem: u32,
        tent: u64,
        epoch: u32,
    ) {
        let iu = i as usize;
        self.stamp[iu] = epoch;
        self.preds[iu] = rem;
        self.tentative[iu] = tent;
        self.wait[iu] = NO_TASK as u64;
        if rem == 0 {
            let t = view.thread_of(CompactId(i)).0 as usize;
            if self.choice[t] {
                self.fronts[t].push(tent, low_key(ranks, i), self.progress[t]);
            } else {
                self.queue.push(i);
            }
        }
    }

    /// The dispatch loop every simulation runs (module docs): drains the
    /// seeded queue and frontiers of `view`'s first `t_count` threads to
    /// completion, from `makespan`. A task released on a choice thread
    /// joins that thread's frontier; one released anywhere else joins the
    /// FIFO queue and starts at `max(tentative, progress)`. The loop takes
    /// the best frontier key only when the queue is empty. With no choice
    /// thread it is the chain sweep, with every thread one the frontier
    /// kernel.
    ///
    /// It goes to the end and checks both conditions under which its run
    /// is the kernel's, marking in `marked` every queued thread on which
    /// it takes a task whose previous task there, in the loop's order, is
    /// not one of its direct predecessors (condition (a): that thread is
    /// no chain), and every thread unless each zero-cost queued task with
    /// a successor ranks below every task it took from a frontier
    /// (condition (b)). Until a task is taken, its `wait` slot holds the
    /// last task taken on its thread among its direct predecessors (or
    /// [`NO_TASK`]), which is all the chain check reads. Returns how many
    /// tasks it took and the makespan.
    ///
    /// `ranks` holds each task's dense rank (`None`: the task id, the
    /// default order). `bests` is working space; the loop fills it from
    /// the seeded frontiers itself.
    fn drain<G: SimGraphView>(
        &mut self,
        view: &G,
        ranks: Option<&[u32]>,
        t_count: usize,
        mut makespan: u64,
    ) -> (usize, u64) {
        let (tentative, preds) = (&mut self.tentative[..], &mut self.preds[..]);
        let (start, wait) = (&mut self.start[..], &mut self.wait[..]);
        let progress = &mut self.progress[..t_count];
        let fronts = &mut self.fronts[..t_count];
        let bests = &mut self.bests[..t_count];
        let choice = &self.choice[..t_count];
        let (last, marked) = (&mut self.last[..t_count], &mut self.marked[..t_count]);
        let queue = &mut self.queue;
        for (t, front) in fronts.iter_mut().enumerate() {
            bests[t] = if choice[t] {
                front.refresh(progress[t]);
                front.best(progress[t])
            } else {
                IDLE
            };
        }
        // One more than the highest dense rank of a zero-cost queued task
        // with a successor (0: none), and the lowest of a task taken from
        // a frontier: condition (b) is `zero_rank <= choice_rank`.
        let (mut zero_rank, mut choice_rank) = (0u64, u64::MAX);
        let (mut head, mut done) = (0usize, 0usize);
        loop {
            let (u, t, s) = if let Some(&u) = queue.get(head) {
                head += 1;
                let t = view.thread_of(CompactId(u)).0 as usize;
                let prev = last[t];
                if prev != NO_TASK && wait[u as usize] != prev as u64 {
                    marked[t] = true;
                }
                last[t] = u;
                // A chain task's thread progress is its thread
                // predecessor's finish, which its tentative start already
                // covers; only a thread's first task in the loop's order
                // (in a cone) may start at its progress instead.
                let tent = tentative[u as usize];
                debug_assert!(
                    marked[t] || prev == NO_TASK || tent >= progress[t],
                    "a chain task never waits on its thread"
                );
                (u, t, tent.max(progress[t]))
            } else {
                let mut ti = usize::MAX;
                let mut best = IDLE;
                for (t, &b) in bests.iter().enumerate() {
                    if b < best {
                        best = b;
                        ti = t;
                    }
                }
                if ti == usize::MAX {
                    break;
                }
                debug_assert_eq!(fronts[ti].best(progress[ti]), best);
                fronts[ti].pop_best();
                choice_rank = choice_rank.min(best as u64 >> 32);
                (best as u32, ti, start_of(best))
            };

            let (ui, c) = (u as usize, CompactId(u));
            start[ui] = s;
            wait[ui] = s - progress[t];
            let cost = view.cost_ns(c);
            let fin = s + cost;
            makespan = makespan.max(s + view.duration_ns(c));
            progress[t] = fin;
            done += 1;

            let succs = view.successors(c);
            if cost == 0 && !choice[t] && !succs.is_empty() {
                zero_rank = zero_rank.max((low_key(ranks, u) >> 32) + 1);
            }
            for &v in succs {
                let vi = v.0 as usize;
                tentative[vi] = tentative[vi].max(fin);
                let tv = view.thread_of(v).0 as usize;
                if tv == t {
                    wait[vi] = u as u64;
                }
                preds[vi] -= 1;
                if preds[vi] != 0 {
                    continue;
                }
                if !choice[tv] {
                    queue.push(v.0);
                    continue;
                }
                let low = low_key(ranks, v.0);
                fronts[tv].push(tentative[vi], low, progress[tv]);
                if tv != t {
                    // That thread's progress did not move, so the released
                    // task either beats its cached best or leaves it be.
                    let cand = key(tentative[vi].max(progress[tv]), low);
                    if cand < bests[tv] {
                        bests[tv] = cand;
                    }
                }
            }
            if choice[t] {
                // This thread's progress advanced and its best was consumed.
                let front = &mut fronts[t];
                front.refresh(progress[t]);
                bests[t] = front.best(progress[t]);
            }
        }
        if zero_rank > choice_rank {
            marked.fill(true);
        }
        (done, makespan)
    }

    /// One pass of the loop over `view`'s first `t_count` threads under
    /// the current choice threads: empties the queue and frontiers, lets
    /// `seed` set each thread's progress and seed every task the run
    /// dispatches (returning the makespan to start from), and drains.
    fn pass<G: SimGraphView>(
        &mut self,
        view: &G,
        ranks: Option<&[u32]>,
        t_count: usize,
        seed: &mut impl FnMut(&mut SimBufs) -> u64,
    ) -> (usize, u64) {
        self.queue.clear();
        // Every task is queued at most once: a warm arena never grows it.
        self.queue.reserve(view.len());
        self.last[..t_count].fill(NO_TASK);
        self.marked[..t_count].fill(false);
        for front in &mut self.fronts[..t_count] {
            front.clear();
        }
        let from = seed(self);
        self.drain(view, ranks, t_count, from)
    }

    /// `true` if the last pass marked none of the first `t_count` threads.
    fn none_marked(&self, t_count: usize) -> bool {
        !self.marked[..t_count].contains(&true)
    }

    /// Passes of the loop until one is the kernel's run (module docs),
    /// returning how many tasks it dispatched and the makespan: the
    /// threads a pass marks become choice threads. The chain verdict
    /// depends only on the graph, so a rerun marks no thread for it that
    /// the pass before left unmarked, and `choice` ends as the run's
    /// choice threads.
    fn run<G: SimGraphView>(
        &mut self,
        view: &G,
        ranks: Option<&[u32]>,
        t_count: usize,
        mut seed: impl FnMut(&mut SimBufs) -> u64,
    ) -> (usize, u64) {
        loop {
            let run = self.pass(view, ranks, t_count, &mut seed);
            if self.none_marked(t_count) {
                return run;
            }
            for (c, &m) in self.choice[..t_count].iter_mut().zip(&self.marked) {
                *c |= m;
            }
        }
    }

    /// Seeds every live task of `view` from the start: each thread at
    /// progress 0, each task owing all its predecessors.
    fn seed_all<G: SimGraphView>(&mut self, view: &G, ranks: Option<&[u32]>, epoch: u32) -> u64 {
        self.progress[..view.thread_count()].fill(0);
        for i in 0..view.len() {
            if view.is_live(i) {
                let preds = view.pred_count(CompactId(i as u32));
                self.seed(view, ranks, i as u32, preds, 0, epoch);
            }
        }
        0
    }

    /// Full simulation of every live task of `view` into the buffers,
    /// under the dense order `ranks`; returns how many tasks were
    /// dispatched and the makespan.
    fn run_full<G: SimGraphView>(
        &mut self,
        view: &G,
        ranks: Option<&[u32]>,
        epoch: u32,
    ) -> (usize, u64) {
        self.run(view, ranks, view.thread_count(), |bufs| {
            bufs.seed_all(view, ranks, epoch)
        })
    }

    /// Full simulation of `view` by walking `order`, a topological order
    /// of its tasks in which each thread's tasks keep their chain order,
    /// as [`Schedule`]'s start order of a chain-threaded base is (module
    /// docs, "Retimes keep the structure"). Returns the makespan.
    fn run_replay(&mut self, view: &RetimedView, order: &[u32]) -> u64 {
        self.progress[..view.thread_count()].fill(0);
        self.tentative[..view.len()].fill(0);
        self.walk(view, order)
    }

    /// Times `order`'s tasks one after another, from the `tentative` and
    /// `progress` rows as they stand: each starts at the latest finish
    /// its predecessors posted, which must all be timed before it, and
    /// posts its own. Each thread's tasks in `order` must keep their
    /// chain order. Returns the latest end among them. Inlined into both
    /// callers: as a call, it made the warm retime replay about a tenth
    /// slower.
    #[inline(always)]
    fn walk(&mut self, view: &RetimedView, order: &[u32]) -> u64 {
        let n = view.len();
        let tentative = &mut self.tentative[..n];
        let progress = &mut self.progress[..view.thread_count()];
        let (start, wait) = (&mut self.start[..n], &mut self.wait[..n]);
        let mut makespan = 0u64;
        for &u in order {
            let (ui, c) = (u as usize, CompactId(u));
            let t = view.graph.thread_of(c).0 as usize;
            let s = tentative[ui];
            debug_assert!(s >= progress[t], "a chain task never waits on its thread");
            start[ui] = s;
            wait[ui] = s - progress[t];
            let fin = s + view.cost[ui];
            makespan = makespan.max(s + view.dur[ui]);
            progress[t] = fin;
            for &v in view.graph.successors(c) {
                let vi = v.0 as usize;
                tentative[vi] = tentative[vi].max(fin);
            }
        }
        makespan
    }

    /// The per-copy run of a P3 plan (module docs, "P3 plans run copy by
    /// copy"): times every task of `view` after `seed`'s replayed first
    /// copy, segment by segment in `seed`'s order, from the seeded
    /// tentative starts and thread progress. A compute segment is walked;
    /// a channel's segment is put on that thread's frontier and drained
    /// by the kernel's pick under the dense order `ranks`. Returns
    /// `false`, the run left unfinished, as soon as check 5 or 6 fails.
    fn run_copies(&mut self, view: &RetimedView, ranks: Option<&[u32]>, seed: &ReplaySeed) -> bool {
        let (k, t_count) = (seed.replayed, view.thread_count());
        self.tentative[k..view.len()].copy_from_slice(&seed.tent);
        self.progress[..t_count].copy_from_slice(&seed.progress);
        self.last[..t_count].fill(NO_TASK);
        let mut from = 0;
        for &(end, thread) in &seed.segments {
            let segment = &seed.order[from..end as usize];
            from = end as usize;
            if thread == NO_TASK {
                self.walk(view, segment);
                continue;
            }
            let t = thread as usize;
            let (tentative, start) = (&mut self.tentative[..], &mut self.start[..]);
            let (progress, last) = (&mut self.progress[t], &mut self.last[t]);
            let front = &mut self.fronts[t];
            front.clear();
            for &u in segment {
                let tent = tentative[u as usize];
                // 6. Released after every earlier start on the channel.
                if *last != NO_TASK && tent <= start[*last as usize] {
                    return false;
                }
                front.push(tent, low_key(ranks, u), *progress);
            }
            loop {
                front.refresh(*progress);
                let best = front.best(*progress);
                if best == IDLE {
                    break;
                }
                front.pop_best();
                let (u, s) = (best as u32, start_of(best));
                let (ui, c) = (u as usize, CompactId(u));
                start[ui] = s;
                let cost = view.cost[ui];
                let fin = s + cost;
                *progress = fin;
                *last = u;
                for &v in view.graph.successors(c) {
                    let vi = v.0 as usize;
                    // 5. A release at the transfer's own start reaches no
                    // frontier, directly or through a zero-cost task.
                    if cost == 0
                        && (self.choice[view.graph.thread_of(v).0 as usize] || view.cost[vi] == 0)
                    {
                        return false;
                    }
                    tentative[vi] = tentative[vi].max(fin);
                }
            }
        }
        true
    }

    /// Seeds and re-dispatches the cone over `view`, stamping exactly the
    /// live suffix and inserted tasks: base threads resume from their
    /// progress at the cutoff, fresh ones from zero; suffix tasks seed
    /// through [`Schedule::pred_split`] or their overridden predecessor
    /// list, inserts from their own lists. Every successor of a cone task
    /// is itself a cone task, so the loop never touches a prefix slot.
    fn run_cone(
        &mut self,
        view: &OverlayView,
        schedule: &Schedule,
        d: &NetDelta,
        cutoff: u64,
        cut_idx: usize,
        epoch: u32,
    ) -> (usize, u64) {
        let base = view.base;
        let t_count = view.ov.shape.t_count;
        // Remaining preds / seeded tentative from an explicit list:
        // replayed base predecessors contribute their finish; suffix and
        // inserted ones (no base compact id) stay owed to the loop.
        let split_list = |list: &[(TaskId, crate::graph::DepKind)]| -> (u32, u64) {
            let mut rem = 0u32;
            let mut tent = 0u64;
            for &(p, _) in list {
                match base.compact_of(p) {
                    Some(c) if schedule.sim.start_ns[c.0 as usize] < cutoff => {
                        tent = tent.max(schedule.sim.start_ns[c.0 as usize] + base.cost_ns(c));
                    }
                    _ => rem += 1,
                }
            }
            (rem, tent)
        };
        self.run(view, None, t_count, |bufs| {
            for t in 0..t_count {
                bufs.progress[t] = if t < base.thread_count() {
                    schedule.progress_at(t, cutoff)
                } else {
                    0
                };
            }
            for &c in &schedule.by_start[cut_idx..] {
                if !view.is_live(c as usize) {
                    continue;
                }
                let (rem, tent) = match d.pred_over(base.task_id(CompactId(c))) {
                    Some(list) => split_list(list),
                    None => schedule.pred_split(c as usize, cutoff),
                };
                bufs.seed(view, None, c, rem, tent, epoch);
            }
            for (k, &v) in d.new_ids().iter().enumerate() {
                let i = view.ov.ins_view[k];
                if i != u32::MAX {
                    let (rem, tent) = d.pred_over(v).map_or((0, 0), split_list);
                    bufs.seed(view, None, i, rem, tent, epoch);
                }
            }
            schedule.makespan_prefix[cut_idx]
        })
    }
}

/// How every run of a P3 plan times it (module docs, "P3 plans run copy
/// by copy"): the plan's first unrolled copy, compact ids
/// `0..replayed`, timed once by the build's sweep, and the order of the
/// per-copy run that times the rest from there. The empty seed replays
/// nothing and orders nothing: each run is the dispatch loop over the
/// whole graph. Either way, the seed records the graph's choice threads,
/// those its build's sweep marked, where tasks that do not depend on
/// each other share a thread (a P3 plan's push and pull channels).
///
/// [`ReplaySeed::build`] returns the empty seed unless checks 2–4 of the
/// module docs hold, which it checks once, in O(V+E).
/// [`SimScratch::simulate_retimed`] runs the plan.
#[derive(Debug, Clone)]
pub(crate) struct ReplaySeed {
    /// Tasks replayed: compact ids `0..replayed`, the first copy.
    replayed: usize,
    /// Every later task once, in the order the run times it: per copy,
    /// its compute tasks in the build sweep's FIFO order (from copy 1),
    /// then its transfers, channel by channel.
    order: Vec<u32>,
    /// The segments of `order`, each `(end, thread)`: a compute walk
    /// (`thread` [`NO_TASK`]) or one copy's transfers on channel
    /// `thread`.
    segments: Vec<(u32, u32)>,
    /// Seeded tentative start of each later task.
    tent: Vec<u64>,
    /// Each thread's progress after the first copy.
    progress: Vec<u64>,
    /// Per thread: `true` for a choice thread of every run of the graph.
    choice: Vec<bool>,
}

impl ReplaySeed {
    /// The seed of `graph` under the dense order `ranks`, whose copies
    /// are compact-id ranges of `k` compute tasks each (copy `q`'s are
    /// the ids in `q*k..(q+1)*k` that are no transfer) and whose
    /// `transfers` are listed with their copies, by copy and within a copy
    /// channel by channel in the run's stage order (pushes before
    /// pulls). Empty (`k` 0 included) unless checks 2–4 hold. One pass of
    /// the loop with no choice thread, the chain sweep, over `graph`
    /// finds its choice threads, gives the compute tasks' FIFO order and
    /// times the first copy: under checks 2 and 3 it starts each of its
    /// tasks at its latest predecessor finish, which is where every run
    /// of the graph starts it, whatever the transfers' costs.
    pub(crate) fn build(
        graph: &CompiledGraph,
        ranks: Option<&[u32]>,
        k: usize,
        transfers: &[(u32, CompactId)],
    ) -> ReplaySeed {
        let n = graph.len();
        let t_count = graph.thread_count();
        let mut sweep = SimBufs::sized_for(graph);
        let (taken, _) = sweep.pass(graph, None, t_count, &mut |bufs| {
            bufs.seed_all(graph, None, 0)
        });
        let empty = ReplaySeed {
            replayed: 0,
            order: Vec::new(),
            segments: Vec::new(),
            tent: Vec::new(),
            progress: Vec::new(),
            choice: sweep.marked[..t_count].to_vec(),
        };
        // The graph must be acyclic: the sweep takes every task.
        if k == 0 || k > n || taken != n {
            return empty;
        }
        let on_choice = |i: u32| empty.choice[graph.thread_of(CompactId(i)).0 as usize];
        let rank = |i: u32| low_key(ranks, i) >> 32;

        // The run's segments: copy 0 (segment 0, replayed), then per copy
        // its compute walk (from copy 1) and one segment per run of
        // transfers on one channel. `seg_of` holds each task's segment.
        let copies = (n - 1) / k + 1;
        let copies = copies.max(transfers.last().map_or(0, |&(q, _)| q as usize + 1));
        let mut computes = vec![0u32; copies];
        for i in k as u32..n as u32 {
            if !on_choice(i) {
                computes[i as usize / k] += 1;
            }
        }
        let mut seg_of = vec![u32::MAX; n];
        seg_of[..k].fill(0);
        let mut order = vec![0u32; n - k];
        let mut segments: Vec<(u32, u32)> = Vec::new();
        // Where each copy's compute walk starts in `order`, and its
        // segment.
        let mut walks = vec![(0u32, 0u32); copies];
        let (mut end, mut next, mut channel) = (0u32, transfers.iter().peekable(), None);
        for q in 0..copies {
            if q > 0 && computes[q] > 0 {
                walks[q] = (end, segments.len() as u32 + 1);
                end += computes[q];
                segments.push((end, NO_TASK));
            }
            while let Some(&(_, c)) = next.next_if(|&&(copy, _)| copy as usize == q) {
                // 2. Each transfer is listed once, on a marked thread.
                if !on_choice(c.0) || seg_of[c.0 as usize] != u32::MAX {
                    return empty;
                }
                let t = graph.thread_of(c).0;
                order[end as usize] = c.0;
                end += 1;
                if channel == Some((q, t)) {
                    segments.last_mut().expect("the channel's segment").0 = end;
                } else {
                    segments.push((end, t));
                    channel = Some((q, t));
                }
                seg_of[c.0 as usize] = segments.len() as u32;
            }
        }
        // 2. Every task on a marked thread is a listed transfer (the list
        // is in copy order, or some are left over).
        let marked_tasks: u32 = (0..t_count)
            .filter(|&t| empty.choice[t])
            .map(|t| graph.thread_tasks[t])
            .sum();
        if next.next().is_some() || marked_tasks as usize != transfers.len() {
            return empty;
        }
        // The compute walks, each in the sweep's FIFO order.
        for &u in &sweep.queue {
            let q = u as usize / k;
            if q > 0 && !on_choice(u) {
                let (at, segment) = &mut walks[q];
                order[*at as usize] = u;
                *at += 1;
                seg_of[u as usize] = *segment;
            }
        }
        // 3. Every edge runs forward in the run's order: to a later
        // segment, or within a compute walk. So copy 0 is closed under
        // predecessors.
        for u in 0..n as u32 {
            for &v in graph.successors(CompactId(u)) {
                let (su, sv) = (seg_of[u as usize], seg_of[v.0 as usize]);
                if su > sv || (su == sv && on_choice(v.0)) {
                    return empty;
                }
            }
        }
        // 4. Every compute task that costs nothing ranks below every
        // transfer.
        let first = transfers.iter().map(|&(_, c)| rank(c.0)).min();
        if let Some(first) = first {
            if (0..n as u32)
                .any(|i| !on_choice(i) && graph.cost_ns(CompactId(i)) == 0 && rank(i) >= first)
            {
                return empty;
            }
        }
        let mut tent = vec![0u64; n - k];
        let mut progress = vec![0u64; t_count];
        for u in 0..k {
            let c = CompactId(u as u32);
            let fin = sweep.start[u] + graph.cost_ns(c);
            let t = graph.thread_of(c).0 as usize;
            progress[t] = progress[t].max(fin);
            for &v in graph.successors(c) {
                if let Some(j) = (v.0 as usize).checked_sub(k) {
                    tent[j] = tent[j].max(fin);
                }
            }
        }
        ReplaySeed {
            replayed: k,
            order,
            segments,
            tent,
            progress,
            ..empty
        }
    }

    /// Tasks replayed without dispatching (0 for the empty seed).
    pub(crate) fn replayed(&self) -> usize {
        self.replayed
    }
}

/// What the last warm evaluation left in the arena — enough for
/// [`SimScratch::materialize`] to reconstruct the full [`CompiledSim`]
/// of the applied graph.
#[derive(Debug, Clone, Copy)]
enum WarmLast {
    /// Cone re-dispatch: stamped slots overlay the base schedule.
    Cone { makespan: u64 },
    /// Full dispatch of every live view task into the buffers.
    Full { makespan: u64 },
    /// Retime replay over the base's order: the buffers hold every base
    /// task, in base order, which the applied graph keeps.
    Replay { makespan: u64 },
    /// The thread-insert path: the buffers hold the inserted tasks, and
    /// the base tasks replay the base's order with the entries delayed.
    Tails { makespan: u64 },
    /// No simulation-relevant effect: the base schedule is the answer.
    Noop,
}

/// Monotonic reuse accounting of a scratch arena: every simulation that
/// sizes its buffers (a warm thread-insert, cone or full evaluation, a
/// retime replay, a P3 plan run) counts once. A warm evaluation with no
/// simulation-relevant effect, or one [`try_simulate_warm_with`]
/// refuses, counts in neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchCounters {
    /// Simulations served without growing any buffer.
    pub reuses: u64,
    /// Simulations that had to (re)size at least one buffer.
    pub allocs: u64,
}

/// A reusable simulation arena for [`simulate_warm_with`] and P3's plan
/// simulations: every per-sim O(V) vector lives here as epoch-stamped
/// slots sized once per compiled graph, so back-to-back evaluations
/// allocate nothing and a warm one touches only its patch and cone.
/// Invalidation is one epoch bump per evaluation; the u32 generation
/// counter wrapping around triggers a full stamp clear (pinned by
/// tests), so stale stamps can never alias a new epoch.
#[derive(Debug, Default)]
pub struct SimScratch {
    epoch: u32,
    ov: Overlay,
    bufs: SimBufs,
    /// Cost and duration rows of the last retimed graph
    /// ([`SimScratch::write_retimed`]).
    cost: Vec<u64>,
    dur: Vec<u64>,
    last: Option<WarmLast>,
    reuses: u64,
    allocs: u64,
}

impl SimScratch {
    /// An empty arena; buffers grow on first use and are retained.
    pub fn new() -> SimScratch {
        SimScratch::default()
    }

    /// Opens a new evaluation epoch, forgetting the last evaluation.
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wrap: stamps written 2^32 evaluations ago could alias
            // the restarted epoch — clear every stamp array once.
            self.bufs.stamp.fill(0);
            self.ov.stamp.fill(0);
            self.ov.dead.fill(0);
            self.epoch = 1;
        }
        self.last = None;
    }

    /// Counts one simulation: an alloc if it grew a buffer, a reuse
    /// otherwise.
    fn count(&mut self, grew: bool) {
        if grew {
            self.allocs += 1;
        } else {
            self.reuses += 1;
        }
    }

    /// Opens a new evaluation epoch and builds the overlay of `patch`
    /// over `base`, (re)sizing the buffers on the way; `true` if any
    /// grew. O(|patch|) when the arena has already served a graph at
    /// least this large. The caller counts the simulation it then runs.
    fn begin(&mut self, base: &CompiledGraph, patch: &GraphPatch) -> bool {
        self.next_epoch();
        let grew = self
            .ov
            .build(base, patch.delta(), patch.base_capacity(), self.epoch);
        let shape = self.ov.shape;
        self.bufs.ensure(shape.n, shape.t_count) || grew
    }

    /// The one writer of retimed rows: opens a new evaluation epoch,
    /// sizes the buffers for `graph`, and copies its cost and duration
    /// rows from task `from` onwards into the arena, with `durations`
    /// replacing the given tasks' durations (each keeping its trailing
    /// gap). Rows before `from` are left as they are. What P3's plan runs
    /// ([`SimScratch::simulate_retimed`]) and the warm retime replay
    /// ([`SimScratch::replay_retimes`]) read through a [`RetimedView`].
    ///
    /// # Panics
    ///
    /// Panics if a retimed task is before `from`.
    fn write_retimed(
        &mut self,
        graph: &CompiledGraph,
        from: usize,
        durations: impl IntoIterator<Item = (CompactId, u64)>,
    ) {
        self.next_epoch();
        let n = graph.len();
        let grew = self.cost.len() < n;
        if grew {
            self.cost.resize(n, 0);
            self.dur.resize(n, 0);
        }
        let grew = self.bufs.ensure(n, graph.thread_count()) || grew;
        self.count(grew);
        let (cost, dur) = (&mut self.cost[..n], &mut self.dur[..n]);
        cost[from..].copy_from_slice(&graph.cost_ns[from..]);
        dur[from..].copy_from_slice(&graph.duration_ns[from..]);
        for (c, d) in durations {
            let i = c.0 as usize;
            assert!(i >= from, "a replayed task keeps its base duration");
            cost[i] = d + (cost[i] - dur[i]);
            dur[i] = d;
        }
    }

    /// Simulates `graph` with the given transfers' durations replaced
    /// (each keeping its trailing gap), under the dense order `ranks`
    /// ([`FrontierOrder::dense_ranks`]), in this arena: the per-copy run
    /// after `seed`'s replayed first copy (module docs), or, for an empty
    /// seed or where check 5 or 6 fails, the dispatch loop over the whole
    /// graph with a frontier on `seed`'s choice threads. Only the tasks
    /// the run times get arena-owned copies of their cost and duration
    /// rows, so nothing is cloned and, warm, nothing allocated. Returns
    /// how many tasks the run timed, and each timed task's end (start
    /// plus duration); a replayed task's end is not kept. The run opens
    /// its own epoch and leaves nothing to [`SimScratch::materialize`].
    ///
    /// # Panics
    ///
    /// Panics if a retimed task is in the replayed copy.
    pub(crate) fn simulate_retimed(
        &mut self,
        graph: &CompiledGraph,
        ranks: Option<&[u32]>,
        seed: &ReplaySeed,
        durations: impl IntoIterator<Item = (CompactId, u64)>,
    ) -> Result<(usize, impl Fn(CompactId) -> u64 + '_), GraphError> {
        let (n, k) = (graph.len(), seed.replayed);
        // Check 4 rests on the compute tasks' costs: only transfers move.
        let durations = durations.into_iter().inspect(|&(c, _)| {
            debug_assert!(
                k == 0 || seed.choice[graph.thread_of(c).0 as usize],
                "only transfers are retimed"
            )
        });
        self.write_retimed(graph, k, durations);
        self.bufs.choice[..graph.thread_count()].copy_from_slice(&seed.choice);
        let by_copy = k > 0 && {
            let view = RetimedView {
                graph,
                cost: &self.cost[..n],
                dur: &self.dur[..n],
            };
            self.bufs.run_copies(&view, ranks, seed)
        };
        let timed = if by_copy {
            n - k
        } else {
            // The whole graph, its rows written from task 0.
            self.cost[..k].copy_from_slice(&graph.cost_ns[..k]);
            self.dur[..k].copy_from_slice(&graph.duration_ns[..k]);
            let view = RetimedView {
                graph,
                cost: &self.cost[..n],
                dur: &self.dur[..n],
            };
            if self.bufs.run_full(&view, ranks, self.epoch).0 != n {
                return Err(GraphError::Cycle);
            }
            n
        };
        let (start, dur) = (&self.bufs.start, &self.dur);
        Ok((timed, move |c: CompactId| {
            start[c.0 as usize] + dur[c.0 as usize]
        }))
    }

    /// Sets the choice threads of a warm run over the overlay of the
    /// last [`SimScratch::begin`] (module docs): on a chain-threaded base,
    /// the threads the base lacks and, when there are any, every base
    /// thread the patch inserts a task onto; on any other base, every
    /// thread.
    fn choose_threads(&mut self, base: &CompiledGraph, chain_threaded: bool) {
        let (t_base, t_count) = (base.thread_count(), self.ov.shape.t_count);
        let choice = &mut self.bufs.choice[..t_count];
        if !chain_threaded {
            choice.fill(true);
            return;
        }
        choice[..t_base].fill(false);
        choice[t_base..].fill(true);
        if t_count > t_base {
            for &i in self.ov.ins_view.iter().filter(|&&i| i != u32::MAX) {
                choice[self.ov.thread[i as usize] as usize] = true;
            }
        }
    }

    /// The thread-insert path over the overlay of the last
    /// [`SimScratch::begin`], for a patch [`adds_only_threads`] accepts
    /// over the chain-threaded base `schedule` was captured from (module
    /// docs): `None`, with nothing run, where a base predecessor of an
    /// inserted task descends from an entry. Otherwise it times the
    /// inserted tasks alone, each seeded from its base predecessors'
    /// captured finishes and the entries owing more predecessors than
    /// they have, so they never release, and answers with the base
    /// makespan, each entry's tail after its inserted predecessors and
    /// the inserted tasks' ends; an error if the inserted tasks close a
    /// cycle among themselves.
    fn time_inserts(
        &mut self,
        base: &CompiledGraph,
        schedule: &Schedule,
        d: &NetDelta,
    ) -> Option<Result<WarmOutcome, GraphError>> {
        // Only the threads the base lacks hold inserts: each keeps a
        // frontier, and the pass below takes every insert from one.
        self.choose_threads(base, true);
        let (epoch, shape) = (self.epoch, self.ov.shape);
        let (n_base, base_cap) = (shape.n_base, base.arena_len());
        let start = &schedule.sim.start_ns;
        let view = self.ov.view(base, epoch);
        let bufs = &mut self.bufs;

        // Each insert owes its inserted predecessors and is ready at its
        // base ones' latest finish; `latest` is their latest start. The
        // live inserts have view ids from `n_base`, in id order.
        let mut latest = None;
        let inserts = d.new_ids().iter().filter(|&&v| !d.is_removed(v));
        for (i, &v) in (n_base..).zip(inserts) {
            let (mut rem, mut tent) = (0u32, 0u64);
            for &(p, _) in d.pred_over(v).unwrap_or_default() {
                if p.0 >= base_cap {
                    rem += 1;
                    continue;
                }
                let c = base.compact_of(p).expect("a base predecessor is live");
                let s = start[c.0 as usize];
                latest = latest.max(Some(s));
                tent = tent.max(s + base.cost_ns(c));
            }
            bufs.stamp[i] = epoch;
            bufs.preds[i] = rem;
            bufs.tentative[i] = tent;
        }
        // The entries, each once, at the head of the queue, which serves
        // as the search's worklist until the pass clears it. Each owes
        // more predecessors than it has, so the pass never releases it.
        bufs.queue.clear();
        for i in n_base..shape.n {
            for &w in view.successors(CompactId(i as u32)) {
                let wi = w.0 as usize;
                if wi < n_base && bufs.stamp[wi] != epoch {
                    bufs.stamp[wi] = epoch;
                    bufs.preds[wi] = u32::MAX;
                    bufs.queue.push(w.0);
                }
            }
        }
        let entries = bufs.queue.len();
        // The reach check: no entry's descendant (the entry included)
        // feeds an insert. Starts only grow along edges, so the search
        // stops past the latest start of a task that feeds one. It
        // stamps what it visits; when it fails, each of those starts no
        // earlier than an entry, so the cone that may follow, whose
        // cutoff is at most any entry's start, seeds it afresh.
        let mut head = 0;
        while let (Some(latest), Some(&u)) = (latest, bufs.queue.get(head)) {
            head += 1;
            let c = CompactId(u);
            if start[u as usize] > latest {
                continue;
            }
            if view.slot(c).is_some() && view.successors(c).iter().any(|w| w.0 as usize >= n_base) {
                return None;
            }
            for &w in base.successors(c) {
                let wi = w.0 as usize;
                if bufs.stamp[wi] != epoch && start[wi] <= latest {
                    bufs.stamp[wi] = epoch;
                    bufs.queue.push(w.0);
                }
            }
        }

        let t_count = shape.t_count;
        let (done, ends) = bufs.pass(&view, None, t_count, &mut |bufs| {
            bufs.progress[..t_count].fill(0);
            for i in n_base as u32..shape.n as u32 {
                let (rem, tent) = (bufs.preds[i as usize], bufs.tentative[i as usize]);
                bufs.seed(&view, None, i, rem, tent, epoch);
            }
            0
        });
        debug_assert!(bufs.none_marked(t_count), "no task is queued");
        if done != shape.n - n_base {
            return Some(Err(GraphError::Cycle));
        }
        let mut makespan = schedule.makespan_ns().max(ends);
        let mut cutoff = u64::MAX;
        for i in n_base..shape.n {
            let c = CompactId(i as u32);
            let fin = bufs.start[i] + view.cost_ns(c);
            cutoff = cutoff.min(bufs.start[i]);
            for &w in view
                .successors(c)
                .iter()
                .filter(|w| (w.0 as usize) < n_base)
            {
                let wi = w.0 as usize;
                makespan = makespan.max(fin + schedule.tail_ns[wi]);
                cutoff = cutoff.min(start[wi]);
            }
        }
        self.last = Some(WarmLast::Tails { makespan });
        Some(Ok(WarmOutcome {
            makespan_ns: makespan,
            stats: IncrementalStats {
                redispatched: done,
                total: shape.live,
                cutoff_ns: Some(cutoff),
                entries: Some(entries),
            },
        }))
    }

    /// The retime replay (module docs): simulates `base` with
    /// `durations`, a structure-keeping patch's duration overrides,
    /// written over its rows, by walking `schedule`'s start order, and
    /// leaves the run to [`SimScratch::materialize`]. Returns the
    /// makespan. The caller checks that `schedule`, captured over
    /// `base`, is chain-threaded.
    fn replay_retimes(
        &mut self,
        base: &CompiledGraph,
        schedule: &Schedule,
        durations: impl Iterator<Item = (TaskId, u64)>,
    ) -> u64 {
        debug_assert!(
            schedule.chain_threaded,
            "replays need a topological start order"
        );
        let compact = |id: TaskId| {
            base.compact_of(id)
                .expect("patched task must be live in the base")
        };
        self.write_retimed(base, 0, durations.map(|(id, d)| (compact(id), d)));
        let n = base.len();
        let view = RetimedView {
            graph: base,
            cost: &self.cost[..n],
            dur: &self.dur[..n],
        };
        let makespan = self.bufs.run_replay(&view, &schedule.by_start);
        self.last = Some(WarmLast::Replay { makespan });
        makespan
    }

    /// Reconstructs the full [`CompiledSim`] of the last
    /// [`simulate_warm_with`] call — byte-identical to
    /// [`simulate_compiled`] over `CompiledGraph::apply` of the same
    /// patch (the oracle the equivalence proptests pin), in the task and
    /// thread order `apply` builds. `base` and `schedule` must be the
    /// ones that evaluation ran against; after the thread-insert path,
    /// the base tasks' run is replayed here, in O(V+E). `None` before any
    /// warm evaluation, and
    /// after a P3 plan run (`whatif::P3Plan::steady_iteration_ns`) or a
    /// [`SimScratch::thread_busy_after`] on this arena.
    pub fn materialize(&self, base: &CompiledGraph, schedule: &Schedule) -> Option<CompiledSim> {
        let mut tails = None;
        let (full, makespan) = match self.last? {
            WarmLast::Noop => return Some(schedule.sim.clone()),
            WarmLast::Cone { makespan } => (false, makespan),
            WarmLast::Full { makespan, .. } => (true, makespan),
            WarmLast::Tails { makespan } => {
                tails = Some(self.replay_delayed(base, schedule));
                (true, makespan)
            }
            WarmLast::Replay { makespan } => {
                let (n, t_count) = (schedule.len(), schedule.sim.thread_end.len());
                return Some(CompiledSim {
                    start_ns: self.bufs.start[..n].to_vec(),
                    wait_ns: self.bufs.wait[..n].to_vec(),
                    thread_end: self.bufs.progress[..t_count].to_vec(),
                    makespan_ns: makespan,
                });
            }
        };
        let shape = self.ov.shape;
        let (live, threads) = self.ov.applied_order(self.epoch);
        let mut start = Vec::with_capacity(shape.live);
        let mut wait = Vec::with_capacity(shape.live);
        // The rows each task and thread reads: on the thread-insert path,
        // the replay's for the base's.
        let (rows, base_rows) = (&self.bufs, tails.as_ref().unwrap_or(&self.bufs));
        let t_base = schedule.sim.thread_end.len();
        for i in live {
            if full || i >= shape.n_base || self.bufs.stamp[i] == self.epoch {
                let r = if i < shape.n_base { base_rows } else { rows };
                start.push(r.start[i]);
                wait.push(r.wait[i]);
            } else {
                start.push(schedule.sim.start_ns[i]);
                wait.push(schedule.sim.wait_ns[i]);
            }
        }
        let thread_end = threads
            .iter()
            .map(|&t| {
                let r = if (t as usize) < t_base {
                    base_rows
                } else {
                    rows
                };
                r.progress[t as usize]
            })
            .collect();
        Some(CompiledSim {
            start_ns: start,
            wait_ns: wait,
            thread_end,
            makespan_ns: makespan,
        })
    }

    /// The base tasks' run on the thread-insert path: `schedule`'s start
    /// order walked over `base` with each entry ready no earlier than
    /// its inserted predecessors' finishes, on fresh rows.
    fn replay_delayed(&self, base: &CompiledGraph, schedule: &Schedule) -> SimBufs {
        let view = self.ov.view(base, self.epoch);
        let mut replay = SimBufs::sized_for(base);
        let n_base = base.len();
        for i in n_base..self.ov.shape.n {
            let c = CompactId(i as u32);
            let fin = self.bufs.start[i] + view.cost_ns(c);
            for &w in view
                .successors(c)
                .iter()
                .filter(|w| (w.0 as usize) < n_base)
            {
                let t = &mut replay.tentative[w.0 as usize];
                *t = (*t).max(fin);
            }
        }
        let rows = RetimedView {
            graph: base,
            cost: &base.cost_ns,
            dur: &base.duration_ns,
        };
        replay.walk(&rows, &schedule.by_start);
        replay
    }

    /// Per-thread busy time (summed [`CompiledGraph::cost_ns`]) of
    /// `base.apply(patch)`, keyed by execution thread, from `base_busy`,
    /// the base's [`thread_busy_ns`]: the patch's overlay is built in
    /// this arena and only its removed, retimed, moved and inserted tasks
    /// are read, so a warm arena answers in O(|patch|). A thread the
    /// patch vacates reads zero. The maximum is the sweep search's
    /// low-fidelity estimate for a patch whose cone a rung refuses: an
    /// optimistic stand-in for the makespan, a lower bound up to trailing
    /// per-task gaps. Counts neither a reuse nor an alloc.
    ///
    /// # Panics
    ///
    /// Panics if `patch` was not recorded against `base`'s arena.
    pub fn thread_busy_after(
        &mut self,
        base: &CompiledGraph,
        base_busy: &[u64],
        patch: &GraphPatch,
    ) -> Vec<(ExecThread, u64)> {
        assert_eq!(
            base.arena_len(),
            patch.base_capacity(),
            "patch recorded against a different base arena"
        );
        debug_assert_eq!(base_busy.len(), base.thread_count());
        self.next_epoch();
        let (d, base_cap) = (patch.delta(), patch.base_capacity());
        self.ov.build(base, d, base_cap, self.epoch);
        let view = self.ov.view(base, self.epoch);
        let mut busy = base_busy.to_vec();
        busy.resize(view.thread_count(), 0);
        for &id in d.removed_ids() {
            // Inserted-then-removed tasks have no base compact id.
            if let Some(c) = base.compact_of(id) {
                busy[base.thread_of(c).0 as usize] -= base.cost_ns(c);
            }
        }
        for &id in d.touched() {
            if d.is_removed(id) {
                continue;
            }
            let c = CompactId(self.ov.view_of(base, base_cap, id) as u32);
            if id.0 < base_cap {
                busy[base.thread_of(c).0 as usize] -= base.cost_ns(c);
            }
            busy[view.thread_of(c).0 as usize] += view.cost_ns(c);
        }
        (0..)
            .zip(busy)
            .map(|(t, b)| (self.ov.exec_thread(base, t), b))
            .collect()
    }

    /// Reuse accounting since construction (or the last
    /// [`SimScratch::take_counters`]).
    pub fn counters(&self) -> ScratchCounters {
        ScratchCounters {
            reuses: self.reuses,
            allocs: self.allocs,
        }
    }

    /// Drains the counters to zero, returning the accumulated values —
    /// how [`ScratchPool::put`] hands a returned arena's counts back.
    pub fn take_counters(&mut self) -> ScratchCounters {
        let c = self.counters();
        self.reuses = 0;
        self.allocs = 0;
        c
    }

    /// Test hook: the choice threads of the last warm cone or full run,
    /// those that kept a frontier.
    #[cfg(test)]
    pub(crate) fn choice_threads(&self, base: &CompiledGraph) -> Vec<ExecThread> {
        (0..self.ov.shape.t_count as u32)
            .filter(|&t| self.bufs.choice[t as usize])
            .map(|t| self.ov.exec_thread(base, t))
            .collect()
    }

    /// Test hook: `true` if the last warm evaluation fell back to a full
    /// run and ran it as the retime replay.
    #[cfg(test)]
    pub(crate) fn replayed(&self) -> bool {
        matches!(self.last, Some(WarmLast::Replay { .. }))
    }

    /// Test hook: forces the generation counter (exercising u32 wrap).
    #[doc(hidden)]
    pub fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// The current generation counter.
    #[doc(hidden)]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }
}

/// A shared pool of [`SimScratch`] arenas: the sweep executor checks one
/// out per worker for the length of a batch, the serve daemon per
/// request, so arenas stay sized for the resident base across calls.
/// The pool keeps no counts: [`ScratchPool::put`] hands an arena's back
/// to whoever checked it out.
#[derive(Debug, Default)]
pub struct ScratchPool {
    pool: Mutex<Vec<SimScratch>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> ScratchPool {
        ScratchPool::default()
    }

    /// Checks out an arena — the most recently returned (warmest) one,
    /// or a fresh empty arena when the pool has run dry.
    pub fn take(&self) -> SimScratch {
        self.arenas().pop().unwrap_or_default()
    }

    /// Returns an arena to the pool, forgetting its last evaluation, and
    /// hands back the counts it accumulated while checked out.
    pub fn put(&self, mut scratch: SimScratch) -> ScratchCounters {
        let counts = scratch.take_counters();
        scratch.last = None;
        self.arenas().push(scratch);
        counts
    }

    /// Locks the arena list, also after a panic poisoned it: the list is
    /// only ever pushed or popped whole, so what a panicking holder left
    /// is sound.
    fn arenas(&self) -> MutexGuard<'_, Vec<SimScratch>> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Result of [`simulate_warm_with`]: the predicted makespan plus which
/// path ran and how much it re-dispatched. The full per-task simulation
/// stays in the arena; call [`SimScratch::materialize`] to expand it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmOutcome {
    /// End of the last task — the predicted iteration time.
    pub makespan_ns: u64,
    /// Which path ran and how much it re-dispatched.
    pub stats: IncrementalStats,
}

/// [`simulate_warm_with`] under the default cone budget,
/// [`DEFAULT_MAX_CONE_FRACTION`].
pub fn simulate_warm(
    base: &CompiledGraph,
    schedule: &Schedule,
    patch: &GraphPatch,
    scratch: &mut SimScratch,
) -> Result<WarmOutcome, GraphError> {
    simulate_warm_with(base, schedule, patch, scratch, DEFAULT_MAX_CONE_FRACTION)
}

/// Simulates `base.apply(patch)` from the base [`Schedule`] under the
/// default [`EarliestStart`] order without applying the patch,
/// allocation-free once `scratch` is warm. The result is pinned
/// byte-identical (equivalence proptests) to [`simulate_compiled`] over
/// the applied graph. Every patch — retimes, thread moves, priority
/// edits, inserts, removals, rewires, also one that leaves a base thread
/// without tasks — is simulated over the base [`CompiledGraph`], with
/// every per-sim O(V) buffer from the arena:
///
/// 1. a patch that only adds threads to a chain-threaded base (module
///    docs) times its inserted tasks alone and adds each entry's captured
///    tail to the base, in O(|patch|), whatever the budget, unless a
///    base predecessor of an inserted task descends from an entry;
/// 2. otherwise the decision rests on the cone alone, which is bounded
///    from the patch's delta and the schedule before anything else is
///    built, the bound stopping as soon as the cone is over the budget:
///    a patch with no simulation-relevant effect (priority and name
///    edits) answers with the base schedule;
/// 3. a cone above `max_cone_fraction` of the patched graph's tasks
///    (`1.0` never falls back, `0.0` always does) runs the full path;
/// 4. every other patch re-dispatches only its cone, over an
///    epoch-stamped overlay in `scratch` built in O(|patch|): the
///    replayed prefix is never copied, so warm cost is O(cone + |patch|).
///
/// On the full path, a patch that keeps the structure (it only retimes)
/// of a chain-threaded base replays the base's start order over the
/// arena's dense duration rows (module docs); every other patch
/// dispatches every live task over the overlay — still zero clones and
/// zero allocations warm. Both report the full path's accounting. The
/// cone and full runs keep a frontier only on the patch's choice threads
/// (module docs).
///
/// # Panics
///
/// Panics if `schedule` was not captured over `base`, or `patch` was not
/// recorded against `base`'s arena.
pub fn simulate_warm_with(
    base: &CompiledGraph,
    schedule: &Schedule,
    patch: &GraphPatch,
    scratch: &mut SimScratch,
    max_cone_fraction: f64,
) -> Result<WarmOutcome, GraphError> {
    warm(base, schedule, patch, scratch, max_cone_fraction, true)
        .map(|outcome| outcome.expect("the full path answers every patch"))
}

/// [`simulate_warm_with`] *without* the full-simulation fallback: `None`
/// says the cone exceeded `max_cone_fraction`, leaving the caller free
/// to substitute something cheaper — the sweep search's
/// low-fidelity rungs answer it with the maximum of
/// [`SimScratch::thread_busy_after`]. Every run counts one reuse or
/// alloc; a no-op and a refusal count neither. After a `None`, the arena
/// holds nothing to [`SimScratch::materialize`].
///
/// # Panics
///
/// As [`simulate_warm_with`].
pub fn try_simulate_warm_with(
    base: &CompiledGraph,
    schedule: &Schedule,
    patch: &GraphPatch,
    scratch: &mut SimScratch,
    max_cone_fraction: f64,
) -> Result<Option<WarmOutcome>, GraphError> {
    warm(base, schedule, patch, scratch, max_cone_fraction, false)
}

/// Both warm entry points: the thread-insert path, then the cone bound,
/// then the cone or, where `fallback` allows and the cone is over the
/// budget, the full path. An overlay built for the thread-insert path
/// serves the run that follows it.
fn warm(
    base: &CompiledGraph,
    schedule: &Schedule,
    patch: &GraphPatch,
    scratch: &mut SimScratch,
    max_cone_fraction: f64,
    fallback: bool,
) -> Result<Option<WarmOutcome>, GraphError> {
    assert_eq!(
        base.len(),
        schedule.len(),
        "schedule captured over a different base"
    );
    assert_eq!(
        base.arena_len(),
        patch.base_capacity(),
        "patch recorded against a different base arena"
    );
    let d = patch.delta();
    // The growth of an overlay already built for this patch.
    let mut built = None;
    if schedule.chain_threaded && adds_only_threads(base, d, patch.base_capacity()) {
        let grew = scratch.begin(base, patch);
        if let Some(answer) = scratch.time_inserts(base, schedule, d) {
            scratch.count(grew);
            return answer.map(Some);
        }
        built = Some(grew);
    }
    // The bound reads the delta and the schedule only; the overlay's
    // insert bounds are its storage.
    let Some(bound) = cone_bound(
        base,
        schedule,
        patch,
        &mut scratch.ov.ins,
        max_cone_fraction,
    ) else {
        if !fallback {
            scratch.last = None;
            return Ok(None);
        }
        return full(base, schedule, patch, scratch, built).map(Some);
    };
    if bound.cutoff == u64::MAX {
        // No simulation-relevant effect (name, kind or priority edits):
        // the base schedule is the answer, referenced rather than cloned.
        scratch.last = Some(WarmLast::Noop);
        return Ok(Some(WarmOutcome {
            makespan_ns: schedule.makespan_ns(),
            stats: IncrementalStats {
                redispatched: 0,
                total: bound.n_new,
                cutoff_ns: Some(u64::MAX),
                entries: None,
            },
        }));
    }
    let grew = built.unwrap_or_else(|| scratch.begin(base, patch));
    scratch.count(grew);
    debug_assert_eq!(
        bound.n_new, scratch.ov.shape.live,
        "delta-derived live count must match"
    );
    scratch.choose_threads(base, schedule.chain_threaded);
    let view = scratch.ov.view(base, scratch.epoch);
    let (done, makespan) = scratch.bufs.run_cone(
        &view,
        schedule,
        d,
        bound.cutoff,
        bound.cut_idx,
        scratch.epoch,
    );
    if done != bound.cone {
        return Err(GraphError::Cycle);
    }
    scratch.last = Some(WarmLast::Cone { makespan });
    Ok(Some(WarmOutcome {
        makespan_ns: makespan,
        stats: IncrementalStats {
            redispatched: done,
            total: bound.n_new,
            cutoff_ns: Some(bound.cutoff),
            entries: None,
        },
    }))
}

/// The full path of [`simulate_warm_with`] (its docs): the retime replay
/// for a patch that only retimes a chain-threaded base, the dispatch
/// loop over the overlay (`built`, when it already is, with its growth)
/// for every other.
fn full(
    base: &CompiledGraph,
    schedule: &Schedule,
    patch: &GraphPatch,
    scratch: &mut SimScratch,
    built: Option<bool>,
) -> Result<WarmOutcome, GraphError> {
    let retimes = patch
        .delta()
        .retimes_only()
        .filter(|_| schedule.chain_threaded);
    let (live, makespan) = if let Some(durations) = retimes {
        (
            base.len(),
            scratch.replay_retimes(base, schedule, durations),
        )
    } else {
        let grew = built.unwrap_or_else(|| scratch.begin(base, patch));
        scratch.count(grew);
        scratch.choose_threads(base, schedule.chain_threaded);
        let view = scratch.ov.view(base, scratch.epoch);
        let (done, makespan) = scratch.bufs.run_full(&view, None, scratch.epoch);
        let live = scratch.ov.shape.live;
        if done != live {
            return Err(GraphError::Cycle);
        }
        scratch.last = Some(WarmLast::Full { makespan });
        (live, makespan)
    };
    Ok(WarmOutcome {
        makespan_ns: makespan,
        stats: IncrementalStats {
            redispatched: live,
            total: live,
            cutoff_ns: None,
            entries: None,
        },
    })
}

// ---------------------------------------------------------------------------
// Reference implementation (the oracle)
// ---------------------------------------------------------------------------

/// Simulates with the original quadratic loop: on every dispatch the
/// feasible start of the *entire* frontier is recomputed against thread
/// progress (a `BTreeMap` lookup per candidate) and the frontier is
/// linear-scanned for Algorithm 1's pick — the earliest feasible start,
/// ties broken by task id. O(V · frontier): the equivalence oracle for
/// [`simulate`] (the proptests and `daydream profile --verify`) and the
/// `sim_scale` baseline.
pub fn simulate_reference(graph: &DependencyGraph) -> Result<SimResult, GraphError> {
    let n = graph.capacity();
    let mut refs: Vec<usize> = vec![0; n];
    let mut tentative: Vec<u64> = vec![0; n];
    let mut start: Vec<Option<u64>> = vec![None; n];
    let mut wait: Vec<u64> = vec![0; n];
    let mut progress: BTreeMap<ExecThread, u64> = BTreeMap::new();

    let mut live = 0usize;
    let mut frontier: Vec<TaskId> = Vec::new();
    for (id, t) in graph.iter() {
        live += 1;
        refs[id.0] = graph.predecessors(id).len();
        progress.entry(t.thread).or_insert(0);
        if refs[id.0] == 0 {
            frontier.push(id);
        }
    }

    let mut done = 0usize;
    let mut makespan = 0u64;
    while !frontier.is_empty() {
        // Feasible starts against current thread progress; ties by id.
        let idx = (0..frontier.len())
            .min_by_key(|&i| {
                let id = frontier[i];
                let p = progress[&graph.task(id).thread];
                (p.max(tentative[id.0]), id.0)
            })
            .expect("frontier is non-empty");
        let u = frontier.swap_remove(idx);
        let task = graph.task(u);
        let p = progress[&task.thread];
        let s = p.max(tentative[u.0]);
        start[u.0] = Some(s);
        wait[u.0] = s.saturating_sub(p);
        let fin = s + task.duration_ns + task.gap_ns;
        progress.insert(task.thread, fin);
        makespan = makespan.max(s + task.duration_ns);
        done += 1;

        for &(child, _) in graph.successors(u) {
            tentative[child.0] = tentative[child.0].max(fin);
            refs[child.0] -= 1;
            if refs[child.0] == 0 {
                frontier.push(child);
            }
        }
    }

    if done != live {
        return Err(GraphError::Cycle);
    }
    Ok(SimResult {
        start_ns: start,
        makespan_ns: makespan,
        thread_end: progress,
        wait_ns: wait,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DepKind;
    use crate::task::{Task, TaskKind};
    use daydream_trace::{CpuThreadId, DeviceId, StreamId};
    use proptest::prelude::*;

    fn cpu(dur: u64, gap: u64) -> Task {
        let mut t = Task::new("c", TaskKind::CpuWork, ExecThread::Cpu(CpuThreadId(0)), dur);
        t.gap_ns = gap;
        t
    }

    fn gpu(dur: u64) -> Task {
        Task::new(
            "g",
            TaskKind::GpuKernel,
            ExecThread::Gpu(DeviceId(0), StreamId(0)),
            dur,
        )
    }

    /// Runs both simulators and asserts they agree before returning the
    /// fast path's result.
    fn simulate_checked(g: &DependencyGraph) -> Result<SimResult, GraphError> {
        let fast = simulate(g);
        let oracle = simulate_reference(g);
        assert_eq!(fast, oracle, "heap simulator diverged from the oracle");
        fast
    }

    #[test]
    fn chain_with_gaps() {
        let mut g = DependencyGraph::new();
        let a = g.add_task(cpu(10, 5));
        let b = g.add_task(cpu(20, 0));
        g.add_dep(a, b, DepKind::CpuSeq);
        let r = simulate_checked(&g).unwrap();
        assert_eq!(r.start_of(a), 0);
        // b starts after a's duration + gap (Algorithm 1 line 13/16).
        assert_eq!(r.start_of(b), 15);
        assert_eq!(r.makespan_ns, 35);
    }

    #[test]
    fn cross_thread_dependency() {
        let mut g = DependencyGraph::new();
        let launch = g.add_task(cpu(10, 0));
        let k = g.add_task(gpu(100));
        let sync = g.add_task(cpu(0, 0));
        g.add_dep(launch, k, DepKind::Correlation);
        g.add_dep(launch, sync, DepKind::CpuSeq);
        g.add_dep(k, sync, DepKind::Sync);
        let r = simulate_checked(&g).unwrap();
        assert_eq!(r.start_of(k), 10);
        assert_eq!(r.start_of(sync), 110);
        assert_eq!(r.wait_ns[sync.0], 100, "the CPU waited for the kernel");
        assert_eq!(r.makespan_ns, 110);
    }

    #[test]
    fn parallel_threads_overlap() {
        let mut g = DependencyGraph::new();
        let a = g.add_task(cpu(50, 0));
        let b = g.add_task(gpu(50));
        let r = simulate_checked(&g).unwrap();
        assert_eq!(r.start_of(a), 0);
        assert_eq!(r.start_of(b), 0);
        assert_eq!(r.makespan_ns, 50, "independent threads run in parallel");
    }

    #[test]
    fn diamond_dependencies() {
        let mut g = DependencyGraph::new();
        let a = g.add_task(cpu(10, 0));
        let b = g.add_task(gpu(30));
        let mut c2 = gpu(20);
        c2.thread = ExecThread::Gpu(DeviceId(0), StreamId(1));
        let c = g.add_task(c2);
        let d = g.add_task(cpu(5, 0));
        g.add_dep(a, b, DepKind::Correlation);
        g.add_dep(a, c, DepKind::Correlation);
        g.add_dep(b, d, DepKind::Sync);
        g.add_dep(c, d, DepKind::Sync);
        let r = simulate_checked(&g).unwrap();
        // d waits for the slower branch.
        assert_eq!(r.start_of(d), 40);
        assert_eq!(r.makespan_ns, 45);
    }

    #[test]
    fn removed_tasks_are_skipped() {
        let mut g = DependencyGraph::new();
        let a = g.add_task(cpu(10, 0));
        let b = g.add_task(cpu(1000, 0));
        let c = g.add_task(cpu(10, 0));
        g.add_dep(a, b, DepKind::CpuSeq);
        g.add_dep(b, c, DepKind::CpuSeq);
        g.remove_task(b);
        let r = simulate_checked(&g).unwrap();
        assert_eq!(r.makespan_ns, 20);
        assert!(r.start_ns[b.0].is_none());
    }

    /// Graham's scheduling anomaly: removing work CAN increase the
    /// makespan of a greedy list scheduler. Here `x` delays `a` past `b`,
    /// so the critical `b -> c` chain starts first on thread 0; removing
    /// `x` makes `a` dispatchable at t=0 (earlier id wins the tie) and
    /// pushes the critical chain back by 50.
    #[test]
    fn removal_can_increase_makespan_graham_anomaly() {
        let t1 = ExecThread::Cpu(CpuThreadId(0));
        let t2 = ExecThread::Gpu(DeviceId(0), StreamId(0));
        let mut g = DependencyGraph::new();
        let x = g.add_task(Task::new("x", TaskKind::GpuKernel, t2, 5));
        let a = g.add_task(Task::new("a", TaskKind::CpuWork, t1, 50));
        let b = g.add_task(Task::new("b", TaskKind::CpuWork, t1, 10));
        let c = g.add_task(Task::new("c", TaskKind::GpuKernel, t2, 100));
        g.add_dep(x, a, DepKind::Transform);
        g.add_dep(b, c, DepKind::Transform);
        let before = simulate_checked(&g).unwrap().makespan_ns;
        g.remove_task(x);
        let after = simulate_checked(&g).unwrap().makespan_ns;
        assert_eq!(before, 110);
        assert_eq!(after, 160, "anomaly: less work, later finish");
    }

    #[test]
    fn cycle_reported() {
        let mut g = DependencyGraph::new();
        let a = g.add_task(cpu(10, 0));
        let b = g.add_task(cpu(10, 0));
        g.add_dep(a, b, DepKind::CpuSeq);
        g.add_dep(b, a, DepKind::Transform);
        assert_eq!(simulate(&g), Err(GraphError::Cycle));
        assert_eq!(simulate_reference(&g), Err(GraphError::Cycle));
    }

    #[test]
    fn starts_respect_thread_serialization() {
        let mut g = DependencyGraph::new();
        let ids: Vec<_> = (0..10).map(|i| g.add_task(cpu(10 + i, 2))).collect();
        // No explicit deps: same thread still serializes.
        let r = simulate_checked(&g).unwrap();
        let mut intervals: Vec<(u64, u64)> = ids
            .iter()
            .map(|&id| (r.start_of(id), r.start_of(id) + g.task(id).duration_ns))
            .collect();
        intervals.sort_unstable();
        for w in intervals.windows(2) {
            assert!(w[0].1 <= w[1].0, "thread tasks must not overlap");
        }
    }

    #[test]
    fn empty_graph_simulates_to_zero() {
        let g = DependencyGraph::new();
        let r = simulate_checked(&g).unwrap();
        assert_eq!(r.makespan_ns, 0);
        assert!(r.thread_end.is_empty());
    }

    /// The default order dispatches by id and builds no rank array; any
    /// other order becomes each task's position in its `(rank, id)`
    /// order, ties by id.
    #[test]
    fn default_order_builds_no_rank_array() {
        struct Descending;
        impl FrontierOrder for Descending {
            fn rank(&self, _graph: &CompiledGraph, task: CompactId) -> Rank {
                (u64::MAX - task.0 as u64, 0)
            }
        }
        struct Flat;
        impl FrontierOrder for Flat {
            fn rank(&self, _graph: &CompiledGraph, _task: CompactId) -> Rank {
                (7, 7)
            }
        }
        let mut g = DependencyGraph::new();
        for i in 0..4 {
            g.add_task(cpu(10 + i, 0));
        }
        let cg = CompiledGraph::compile(&g);
        assert_eq!(EarliestStart.dense_ranks(&cg), None);
        assert_eq!(Descending.dense_ranks(&cg), Some(vec![3, 2, 1, 0]));
        assert_eq!(Flat.dense_ranks(&cg), Some(vec![0, 1, 2, 3]));
        assert_eq!(
            simulate_compiled_with(&cg, &Flat).unwrap(),
            simulate_compiled(&cg).unwrap(),
            "an all-tied order falls back to id order"
        );
        let descending = simulate_compiled_with(&cg, &Descending).unwrap();
        assert_eq!(descending.start_ns, vec![36, 25, 13, 0]);
    }

    /// A hand-built plan: `tasks` `(thread, duration)` with `edges`,
    /// compiled.
    fn compile_plan(tasks: &[(ExecThread, u64)], edges: &[(usize, usize)]) -> CompiledGraph {
        let mut g = DependencyGraph::new();
        for &(thread, dur) in tasks {
            g.add_task(Task::new("t", TaskKind::CpuWork, thread, dur));
        }
        for &(a, b) in edges {
            g.add_dep(TaskId(a), TaskId(b), DepKind::Transform);
        }
        CompiledGraph::compile(&g)
    }

    /// A plan's run from its seed, and the kernel's.
    #[derive(Debug)]
    struct PlanRun {
        /// Tasks the seed replays: 0 where a build check failed.
        replayed: usize,
        /// Tasks the run timed: all of them where a check failed.
        timed: usize,
        /// Each task's end after the replayed copy, from the run and from
        /// the kernel.
        ends: Vec<u64>,
        kernel: Vec<u64>,
    }

    /// Runs `cg` under `order` from the seed of copies of `k` compute
    /// tasks and `transfers`, each `(copy, compact id)`, with `wires`
    /// retiming the given transfers, and `simulate_compiled_with` over
    /// the retimed graph.
    fn per_copy_and_kernel<O: FrontierOrder>(
        cg: &CompiledGraph,
        order: &O,
        k: usize,
        transfers: &[(u32, u32)],
        wires: &[(CompactId, u64)],
    ) -> PlanRun {
        let ranks = order.dense_ranks(cg);
        let transfers: Vec<(u32, CompactId)> =
            transfers.iter().map(|&(q, c)| (q, CompactId(c))).collect();
        let seed = ReplaySeed::build(cg, ranks.as_deref(), k, &transfers);
        let later = seed.replayed() as u32..cg.len() as u32;
        let mut scratch = SimScratch::new();
        let (timed, end) = scratch
            .simulate_retimed(cg, ranks.as_deref(), &seed, wires.iter().copied())
            .unwrap();
        let ends = later.clone().map(|i| end(CompactId(i))).collect();
        let mut retimed = cg.clone();
        for &(c, wire) in wires {
            let i = c.0 as usize;
            retimed.cost_ns[i] = wire + (retimed.cost_ns[i] - retimed.duration_ns[i]);
            retimed.duration_ns[i] = wire;
        }
        let sim = simulate_compiled_with(&retimed, order).unwrap();
        let kernel = later
            .map(|i| sim.start_ns[i as usize] + retimed.duration_ns(CompactId(i)))
            .collect();
        PlanRun {
            replayed: seed.replayed(),
            timed,
            ends,
            kernel,
        }
    }

    const SEND: ExecThread = ExecThread::Comm(crate::task::CommChannel::Send);
    const CPU0: ExecThread = ExecThread::Cpu(CpuThreadId(0));

    /// Ranks tasks by a fixed table over their compact ids.
    struct Table(&'static [u64]);

    impl FrontierOrder for Table {
        fn rank(&self, _graph: &CompiledGraph, task: CompactId) -> Rank {
            (self.0[task.0 as usize], 0)
        }
    }

    /// Hand-built plans with a two-task first copy, each run from its
    /// seed and by the kernel under the same order. One passes every
    /// build check and runs copy by copy; each other breaks copy 0's
    /// replay one way, gets the empty seed and still matches, where
    /// replaying copy 0 would not:
    /// 1. a later task feeds copy 0, delaying it past the sweep's timing
    ///    (check 3: an edge runs backwards);
    /// 2. a later task shares a copy-0 thread without being chained after
    ///    it, and runs while copy 0 waits on another thread (check 2: the
    ///    sweep marks a compute thread);
    /// 3. an order ranks transfer `x` below the zero-cost copy-0 task `b`,
    ///    so the channel takes `x` before `b` releases the higher-ranked
    ///    `y` at the same instant (check 4); a run from the seed would see
    ///    `y` released.
    #[test]
    fn seeds_resume_only_where_all_three_build_checks_hold() {
        let check = |case: &str,
                     tasks: &[(ExecThread, u64)],
                     edges: &[(usize, usize)],
                     table: Option<&'static [u64]>,
                     transfers: &[(u32, u32)],
                     replayed: usize| {
            let cg = compile_plan(tasks, edges);
            let run = match table {
                Some(t) => per_copy_and_kernel(&cg, &Table(t), 2, transfers, &[]),
                None => per_copy_and_kernel(&cg, &EarliestStart, 2, transfers, &[]),
            };
            assert_eq!(run.ends, run.kernel, "{case}");
            assert_eq!(run.replayed, replayed, "{case}");
        };
        // a (cpu0, 10) -> b (cpu0, 0); copy-0 transfers x (send, 5) after
        // a, y after b.
        let release = [(CPU0, 10), (CPU0, 0), (SEND, 5), (SEND, 5)];
        let release_edges = [(0, 1), (0, 2), (1, 3)];
        let xy = [(0, 2), (0, 3)];
        check("all checks hold", &release, &release_edges, None, &xy, 2);
        // a -> b -> y on cpu0; x (send, 100) -> b.
        let tasks = [(CPU0, 10), (CPU0, 10), (SEND, 100), (CPU0, 5)];
        check("check 1", &tasks, &[(0, 1), (2, 1), (1, 3)], None, &[], 0);
        // a0 (cpu1, 50) -> a1 (cpu0, 10); z (cpu0, 5) has no predecessor.
        let cpu1 = ExecThread::Cpu(CpuThreadId(1));
        check(
            "check 2",
            &[(cpu1, 50), (CPU0, 10), (CPU0, 5)],
            &[(0, 1)],
            None,
            &[],
            0,
        );
        // Dense ranks a 0, y 1, x 2, b 3.
        let table = Some(&[0, 3, 2, 1][..]);
        check("check 3", &release, &release_edges, table, &xy, 0);
    }

    const RECV: ExecThread = ExecThread::Comm(crate::task::CommChannel::Receive);

    /// Check 5, pinned on two plans, each of whose runs goes copy by copy
    /// at the build's wire times and equals the kernel. With one transfer
    /// retimed to 0, it would release a transfer at its own start, which
    /// the kernel puts on a frontier only after a pick there that a run
    /// with the transfer already on it would not make; so those runs fall
    /// back to the whole plan (every task timed), and equal the kernel.
    ///
    /// Directly: `a` (cpu0, 10) releases the pushes `p` (id 1, 3 ns at
    /// build) and `r` (id 4, 5) and the pull `q2` (id 3, 5) at 10, and
    /// `p` releases the pull `q1` (id 2, 5), the first-ranked transfer
    /// (dense ranks a 0, q1 1, q2 2, p 3, r 4). With `p` at 0, the kernel
    /// picks `q2` on the pull channel at 10 before it dispatches `p`, so
    /// `q1` starts at 15, not at 10.
    ///
    /// Through a zero-cost compute task: copy 0 is `a` (cpu0, 10) with the
    /// pulls `q` (id 2, 3 ns at build) and `q2` (id 3, 5) after it; copy
    /// 1 is `z` (gpu0, 0) after `q`, with the push `x` (id 4, 5) after
    /// `a` and the first-ranked push `y` (id 5, 5) after `z` (dense ranks
    /// a 0, z 1, y 2, x 3, q 4, q2 5). With `q` at 0, the kernel picks
    /// `x` at 10 before it dispatches `q`, and so before `z` releases
    /// `y` at 10: `y` starts at 15, not at 10.
    #[test]
    fn a_zero_cost_push_releasing_a_pull_at_a_pick_falls_back() {
        let gpu0 = ExecThread::Gpu(DeviceId(0), StreamId(0));
        let direct = compile_plan(
            &[(CPU0, 10), (SEND, 3), (RECV, 5), (RECV, 5), (SEND, 5)],
            &[(0, 1), (1, 2), (0, 3), (0, 4)],
        );
        let through_z = compile_plan(
            &[
                (CPU0, 10),
                (gpu0, 0),
                (RECV, 3),
                (RECV, 5),
                (SEND, 5),
                (SEND, 5),
            ],
            &[(0, 2), (0, 3), (2, 1), (0, 4), (1, 5)],
        );
        for (case, cg, table, transfers, zero) in [
            (
                "direct",
                direct,
                Table(&[0, 3, 1, 2, 4]),
                [(0, 1), (0, 4), (0, 2), (0, 3)],
                1,
            ),
            (
                "through z",
                through_z,
                Table(&[0, 1, 4, 5, 3, 2]),
                [(0, 2), (0, 3), (1, 4), (1, 5)],
                2,
            ),
        ] {
            let zero = CompactId(zero);
            let build = cg.duration_ns(zero);
            for (wire, timed) in [(build, cg.len() - 1), (0, cg.len())] {
                let run = per_copy_and_kernel(&cg, &table, 1, &transfers, &[(zero, wire)]);
                assert_eq!(run.ends, run.kernel, "{case}, wire {wire}");
                assert_eq!((run.replayed, run.timed), (1, timed), "{case}, wire {wire}");
            }
        }
    }

    /// Check 6, pinned: copy 0 is `a` (cpu0, 10) with the pushes `x` (id
    /// 2) and `y` (id 3) after it; copy 1 is `b` (cpu0, 5) after `a`,
    /// with the push `z` (id 4) after it, which ranks above `y` (dense
    /// ranks a 0, b 1, z 2, x 3, y 4; each push 5). `y` starts at 15, when
    /// `b` releases `z`: the kernel takes `z` first, a run that drains
    /// copy 0's pushes before it puts any of copy 1's on the frontier
    /// would not, so the run falls back to the whole plan. With `x`
    /// retimed to 4, `y` starts at 14, before `z` is released, and the
    /// run goes copy by copy; both equal the kernel.
    #[test]
    fn a_push_released_at_the_last_start_of_the_copy_before_falls_back() {
        let cg = compile_plan(
            &[(CPU0, 10), (CPU0, 5), (SEND, 5), (SEND, 5), (SEND, 5)],
            &[(0, 1), (0, 2), (0, 3), (1, 4)],
        );
        let table = Table(&[0, 1, 3, 4, 2]);
        let transfers = [(0, 2), (0, 3), (1, 4)];
        let x = CompactId(2);
        for (wire, timed) in [(5, 5), (4, 4)] {
            let run = per_copy_and_kernel(&cg, &table, 1, &transfers, &[(x, wire)]);
            assert_eq!(run.ends, run.kernel, "wire {wire}");
            assert_eq!((run.replayed, run.timed), (1, timed), "wire {wire}");
        }
    }

    /// Check 4, pinned on a chain: `a` (cpu0, 10) → `q` (cpu0, 0) → `p`
    /// (cpu0, 0) is copy 0, the push `x` (id 3, 5) follows `a` and the
    /// push `y` (id 4, 5) follows `p` (dense ranks a 0, p 1, y 2, x 3, q
    /// 4). `p` ranks below every transfer, but `q`, which it waits on,
    /// ranks above `x`: the kernel takes `x` at 10 before `q`, and `y`
    /// only at 15, where a run with `y` on the frontier at 10 would take
    /// it first. So the build orders nothing, and every run is the whole
    /// plan's, which is the kernel's.
    #[test]
    fn a_zero_cost_chain_ranked_above_a_transfer_builds_no_per_copy_order() {
        let cg = compile_plan(
            &[(CPU0, 10), (CPU0, 0), (CPU0, 0), (SEND, 5), (SEND, 5)],
            &[(0, 1), (1, 2), (0, 3), (2, 4)],
        );
        let run = per_copy_and_kernel(&cg, &Table(&[0, 4, 1, 3, 2]), 3, &[(0, 3), (0, 4)], &[]);
        assert_eq!(run.ends, run.kernel);
        assert_eq!((run.replayed, run.timed), (0, cg.len()));
    }

    /// Check 3, pinned: two copies of `a` (cpu0, 10) → `g` (gpu0, 10),
    /// each thread chained across them, and copy 1's pushes `x` (id 4,
    /// 100) and `y` (id 5, 5) after its `a`, where `x` also feeds its own
    /// copy's `g`. The per-copy run would walk copy 1's `g` before any of
    /// its transfers, 90 ns before `x` finishes; so the build orders
    /// nothing, and every run is the whole plan's, which is the
    /// kernel's.
    #[test]
    fn a_transfer_feeding_its_own_copy_builds_no_per_copy_order() {
        let gpu0 = ExecThread::Gpu(DeviceId(0), StreamId(0));
        let cg = compile_plan(
            &[
                (CPU0, 10),
                (gpu0, 10),
                (CPU0, 10),
                (gpu0, 10),
                (SEND, 100),
                (SEND, 5),
            ],
            &[(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (2, 5), (4, 3)],
        );
        let order = crate::whatif::P3Scheduler;
        let run = per_copy_and_kernel(&cg, &order, 2, &[(1, 4), (1, 5)], &[]);
        assert_eq!(run.ends, run.kernel);
        assert_eq!((run.replayed, run.timed), (0, cg.len()));
    }

    /// One sweep gives every thread's verdict. Over `a0 → a1 → a2` on
    /// cpu0 (a chain), `b0` (50) and `b1` (5) on cpu1 with no edge
    /// between them, and `g0 → g1` on gpu0 after `a0` with `g2` after
    /// `a2` alone, the sweep takes cpu1's second task while `b0` still
    /// holds the thread, and gpu0's third while `g1` does: each is a
    /// task whose start would have underflowed past its thread's
    /// progress had the sweep taken its tentative start as given. It
    /// marks both threads, takes every task, and leaves the chain be;
    /// the capture then reruns the kernel.
    #[test]
    fn the_sweep_marks_every_broken_thread_and_takes_every_task() {
        let cpu1 = ExecThread::Cpu(CpuThreadId(1));
        let gpu0 = ExecThread::Gpu(DeviceId(0), StreamId(0));
        let cg = compile_plan(
            &[
                (CPU0, 10),
                (CPU0, 10),
                (CPU0, 10),
                (cpu1, 50),
                (cpu1, 5),
                (gpu0, 20),
                (gpu0, 20),
                (gpu0, 1),
            ],
            &[(0, 1), (1, 2), (0, 5), (5, 6), (2, 7)],
        );
        let mut bufs = SimBufs::sized_for(&cg);
        let t_count = cg.thread_count();
        let (taken, _) = bufs.pass(&cg, None, t_count, &mut |b| b.seed_all(&cg, None, 0));
        assert_eq!(taken, cg.len(), "the sweep goes on past every break");
        let marked: Vec<ExecThread> = (0..cg.thread_count() as u32)
            .filter(|&t| bufs.marked[t as usize])
            .map(|t| cg.exec_thread(ThreadId(t)))
            .collect();
        assert_eq!(marked, [cpu1, gpu0]);
        assert!(!bufs.none_marked(cg.thread_count()));
        let kernel = simulate_compiled(&cg).unwrap();
        let mixed = simulate_compiled_mixed(&cg, &EarliestStart, &[false; 3]).unwrap();
        assert_eq!(mixed, (kernel, bufs.marked), "the marked threads rerun");
        let schedule = Schedule::capture(&cg).unwrap();
        assert!(!schedule.is_chain_threaded());
        assert_eq!(schedule.sim(), &simulate_compiled(&cg).unwrap());
    }

    /// Every catalog family's patch over the profiled `name` at batch 4,
    /// the families that retime only first; DDP's refinements layer on a
    /// two-machine plan.
    fn catalog_patches(
        name: &str,
    ) -> (
        crate::construct::ProfiledGraph,
        Vec<(&'static str, GraphPatch)>,
    ) {
        use crate::construct::ProfiledGraph;
        use crate::patch::PatchGraph;
        use crate::whatif::*;
        use daydream_comm::ClusterConfig;
        use daydream_device::GpuSpec;
        use daydream_runtime::{ground_truth, ExecConfig};

        let model = daydream_models::zoo::by_name(name).unwrap();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(4);
        let pg = ProfiledGraph::from_trace(&ground_truth::run_baseline(&model, &cfg));
        let cluster = ClusterConfig::new(2, 1, 8.0);
        let emit = |family: &str| {
            let mut ov = PatchGraph::new(&pg.graph);
            match family {
                "amp" => plan_amp(&mut ov),
                "upgrade-gpu" => {
                    let old = GpuSpec::by_name(&pg.meta.device).unwrap();
                    plan_upgrade_gpu(&mut ov, &old, &GpuSpec::v100());
                }
                "batch-size" => {
                    plan_batch_size(&mut ov, 4, 16);
                }
                "reconstruct-bn" => plan_reconstruct_bn(&mut ov, &model),
                "metaflow" => plan_metaflow(&mut ov, &qkv_fusion_policy(&model)),
                "gist" => {
                    plan_gist(&mut ov, &GistConfig { lossy: true });
                }
                "fused-adam" => {
                    plan_fused_adam(&mut ov);
                }
                "bandwidth" => {
                    plan_bandwidth(&mut ov, 2.0);
                }
                "vdnn" => {
                    plan_vdnn(&mut ov, &model, &VdnnConfig::default(), 4);
                }
                _ => {
                    let ar = plan_distributed(&mut ov, &pg.meta.buckets, &cluster);
                    match family {
                        "blueconnect" => {
                            plan_blueconnect(&mut ov, &cluster, &ar);
                        }
                        "dgc" => {
                            plan_dgc(&mut ov, &ar, &DgcConfig::default());
                        }
                        _ => {}
                    }
                }
            }
            ov.finish()
        };
        let patches = [
            "amp",
            "upgrade-gpu",
            "batch-size",
            "reconstruct-bn",
            "metaflow",
            "gist",
            "fused-adam",
            "bandwidth",
            "ddp",
            "blueconnect",
            "dgc",
            "vdnn",
        ]
        .map(|family| (family, emit(family)))
        .into();
        (pg, patches)
    }

    /// Condition (b), pinned: the zero-cost `c` (cpu0, id 3) starts at 0
    /// and releases `w` (id 0) onto the collective channel, a choice
    /// thread, where `v` (id 1) is feasible at 0 too. The kernel takes
    /// `v` first, by rank, before `c`; a queue that took `c` first would
    /// put `w` ahead of `v`. So the loop runs this graph with every
    /// thread a choice thread, and equals the reference loop. (Id 2 is a
    /// removed task.)
    #[test]
    fn a_zero_cost_release_ranked_above_a_choice_task_runs_on_every_frontier() {
        let chan = ExecThread::Comm(crate::task::CommChannel::Collective);
        let mut g = DependencyGraph::new();
        let w = g.add_task(Task::new("w", TaskKind::CpuWork, chan, 5));
        let v = g.add_task(Task::new("v", TaskKind::CpuWork, chan, 10));
        let gone = g.add_task(cpu(1, 0));
        let c = g.add_task(cpu(0, 0));
        g.add_dep(c, w, DepKind::Transform);
        g.remove_task(gone);
        let cg = CompiledGraph::compile(&g);
        let mut bufs = SimBufs::sized_for(&cg);
        let on_chan = cg.thread_of(cg.compact_of(v).unwrap()).0 as usize;
        bufs.choice[on_chan] = true;
        let run = bufs.run_full(&cg, None, 0);
        let choice = bufs.choice.clone();
        let r = bufs.into_sim(&cg, run).unwrap().into_sim_result(&cg);
        assert_eq!(r, simulate_reference(&g).unwrap());
        assert_eq!((r.start_of(v), r.start_of(c), r.start_of(w)), (0, 0, 10));
        assert_eq!(choice, [true, true], "every thread keeps a frontier");
    }

    /// How catalog families' full fallbacks run, on the chain-threaded
    /// ResNet-50 and BERT_Base bases at batch 4, with the budget at 0.0
    /// so every patch with an effect falls back, except DDP and
    /// BlueConnect, which only add threads and take the thread-insert
    /// path at any budget: those that only retime (AMP, upgrade-gpu,
    /// batch-size) replay the base's start order; the other structural
    /// ones that keep to the base's threads queue every task; a patch
    /// that adds a thread keeps a frontier on it and on every base thread
    /// it inserts a task onto: DGC on both the collective channel and the
    /// compute stream its compression kernels join, and vDNN, whose
    /// prefetches wait on backward kernels, on its copy stream and CPU
    /// thread. Every result still equals the frontier kernel over the
    /// applied graph.
    #[test]
    fn catalog_full_fallbacks_sweep_only_on_the_base_threads() {
        use crate::task::CommChannel;
        let gpu0 = ExecThread::Gpu(DeviceId(0), StreamId(0));
        let comm = ExecThread::Comm;
        let vdnn = [
            ExecThread::Cpu(crate::whatif::VDNN_THREAD),
            ExecThread::Gpu(DeviceId(0), crate::whatif::VDNN_STREAM),
        ];
        // vDNN on BERT offloads nothing (the catalog refuses it there).
        for (name, vdnn) in [("ResNet-50", &vdnn[..]), ("BERT_Base", &[][..])] {
            let (pg, patches) = catalog_patches(name);
            let base = CompiledGraph::compile(&pg.graph);
            let schedule = Schedule::capture(&base).unwrap();
            assert!(
                schedule.is_chain_threaded(),
                "{name}: every thread is a chain"
            );
            let mut replayed = Vec::new();
            let mut tails = Vec::new();
            let mut frontiers = Vec::new();
            for (family, patch) in &patches {
                let mut scratch = SimScratch::new();
                let warm = simulate_warm_with(&base, &schedule, patch, &mut scratch, 0.0).unwrap();
                let full = simulate_compiled(&base.apply(patch)).unwrap();
                assert_eq!(
                    scratch.materialize(&base, &schedule),
                    Some(full),
                    "{name} {family}"
                );
                if scratch.replayed() {
                    replayed.push(*family);
                } else if warm.stats.entries.is_some() {
                    tails.push(*family);
                } else if !warm.stats.is_incremental() {
                    frontiers.push((*family, scratch.choice_threads(&base)));
                }
            }
            assert_eq!(
                replayed,
                ["amp", "upgrade-gpu", "batch-size"],
                "{name}: full fallbacks that replay"
            );
            assert_eq!(
                tails,
                ["ddp", "blueconnect"],
                "{name}: patches that only add threads"
            );
            let mut expected = vec![
                ("reconstruct-bn", vec![]),
                ("metaflow", vec![]),
                ("gist", vec![]),
                ("fused-adam", vec![]),
                ("dgc", vec![gpu0, comm(CommChannel::Collective)]),
                ("vdnn", vdnn.to_vec()),
            ];
            // reconstruct-BN on BERT and MetaFlow on ResNet-50 change
            // nothing; vDNN on BERT neither.
            expected
                .retain(|(family, _)| patches.iter().any(|(f, p)| f == family && !p.is_empty()));
            assert_eq!(
                frontiers, expected,
                "{name}: each fallback's choice threads"
            );
        }
    }

    /// The bound stops early only where the whole bound is over the
    /// budget: over every catalog patch of the ResNet-50 and BERT_Base
    /// bases at batch 4, at budgets 0.0, 0.75 and 1.0, it refuses exactly
    /// the cones the bound at an unbounded budget puts over it, and
    /// otherwise gives that bound's cutoff and cone.
    #[test]
    fn the_cone_bound_stops_only_once_the_cone_is_over_the_budget() {
        for name in ["ResNet-50", "BERT_Base"] {
            let (pg, patches) = catalog_patches(name);
            let base = CompiledGraph::compile(&pg.graph);
            let schedule = Schedule::capture(&base).unwrap();
            let mut ins = InsertBounds::default();
            let mut refused = [0usize; 3];
            for (family, patch) in &patches {
                let full = cone_bound(&base, &schedule, patch, &mut ins, f64::INFINITY)
                    .expect("no cone is over an unbounded budget");
                let full = (full.cutoff, full.cut_idx, full.cone, full.n_new);
                for (k, budget) in [0.0, 0.75, 1.0].into_iter().enumerate() {
                    let over = full.2 as f64 > budget * full.3 as f64;
                    let bound = cone_bound(&base, &schedule, patch, &mut ins, budget)
                        .map(|b| (b.cutoff, b.cut_idx, b.cone, b.n_new));
                    let expected = (!over).then_some(full);
                    assert_eq!(bound, expected, "{name} {family} at {budget}");
                    refused[k] += over as usize;
                }
            }
            // Every patch with an effect is over 0.0, some cones are under
            // 0.75, and none is over 1.0.
            let effects = patches.iter().filter(|(_, p)| !p.is_empty()).count();
            let under = effects - refused[1];
            assert_eq!(refused[0], effects, "{name}");
            assert!(under > 0, "{name}: {refused:?}");
            assert_eq!(refused[2], 0, "{name}");
        }
    }

    /// A chain-threaded base where the zero-cost `z` (cpu0, id 2) ties
    /// its successor `s` (gpu0, id 1) on start and has the larger compact
    /// id: `a` (cpu0, 10) → `z` (cpu0, 0) → `c` (cpu0, 4), `z` → `s`
    /// (gpu0, 7) → `k` (gpu0, 3), and `c` → `k`. The start order must be
    /// topological, so `z` before `s`, which neither compact-id order nor
    /// an unstable sort of `0..n` by start gives; and retime-only patches
    /// over budget, zero durations included, replay it to the kernel's
    /// answer over the applied graph.
    #[test]
    fn replay_walks_a_zero_cost_tie_in_topological_order() {
        use crate::graph::GraphEdit;
        use crate::patch::PatchGraph;
        let gpu0 = ExecThread::Gpu(DeviceId(0), StreamId(0));
        let mut g = DependencyGraph::new();
        let [a, s, z, c, k] = [(CPU0, 10), (gpu0, 7), (CPU0, 0), (CPU0, 4), (gpu0, 3)]
            .map(|(thread, dur)| g.add_task(Task::new("t", TaskKind::CpuWork, thread, dur)));
        for (from, to) in [(a, z), (z, c), (z, s), (s, k), (c, k)] {
            g.add_dep(from, to, DepKind::Transform);
        }
        let base = CompiledGraph::compile(&g);
        let schedule = Schedule::capture(&base).unwrap();
        assert!(schedule.is_chain_threaded());
        assert_eq!(schedule.sim.start_ns, vec![0, 10, 10, 10, 17]);
        let mut pos = vec![0usize; base.len()];
        for (p, &i) in schedule.by_start.iter().enumerate() {
            pos[i as usize] = p;
        }
        for u in 0..base.len() {
            for &v in base.successors(CompactId(u as u32)) {
                assert!(pos[u] < pos[v.0 as usize], "{u} -> {} out of order", v.0);
            }
        }
        for retimes in [
            vec![(a, 20)],
            vec![(a, 0), (s, 0)],
            vec![(z, 5), (k, 0)],
            vec![(a, 3), (s, 9), (z, 0), (c, 0), (k, 1)],
        ] {
            let mut ov = PatchGraph::new(&g);
            ov.set_durations(&retimes);
            let patch = ov.finish();
            let mut scratch = SimScratch::new();
            let warm = simulate_warm_with(&base, &schedule, &patch, &mut scratch, 0.0).unwrap();
            assert!(scratch.replayed(), "{retimes:?}");
            let full = simulate_compiled(&base.apply(&patch)).unwrap();
            assert_eq!(warm.makespan_ns, full.makespan_ns, "{retimes:?}");
            assert_eq!(
                scratch.materialize(&base, &schedule),
                Some(full),
                "{retimes:?}"
            );
        }
    }

    /// The ready time `cone_bound` reads for a moved task, derived from
    /// the predecessor index, is a full kernel run's final `tentative`
    /// row on the ResNet-50 and BERT_Base bases at batch 4.
    #[test]
    fn derived_ready_times_equal_a_full_runs_tentative_row() {
        use crate::construct::ProfiledGraph;
        use daydream_runtime::{ground_truth, ExecConfig};
        for name in ["ResNet-50", "BERT_Base"] {
            let model = daydream_models::zoo::by_name(name).unwrap();
            let cfg = ExecConfig::pytorch_2080ti().with_batch(4);
            let pg = ProfiledGraph::from_trace(&ground_truth::run_baseline(&model, &cfg));
            let base = CompiledGraph::compile(&pg.graph);
            let schedule = Schedule::capture(&base).unwrap();
            let mut bufs = SimBufs::sized_for(&base);
            bufs.choice.fill(true);
            bufs.run_full(&base, None, 0);
            let ready: Vec<u64> = (0..base.len()).map(|i| schedule.ready_ns(i)).collect();
            assert_eq!(ready, bufs.tentative, "{name}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Plan runs against the kernel under P3's order, over the retimed
        // plan, on random P3 plans: a chain-threaded base over a CPU
        // thread and two GPU streams, dense in ties (durations 0 to 3 and
        // gaps 0 or 1, so zero-cost compute tasks abound), unrolled three
        // times, with push/pull pairs from a task of one copy to one of
        // the next (or to nothing) at priorities that tie, each transfer
        // then retimed to a wire time from 0 to 3, where a third of the
        // cases keep every 0, a third only the pulls' and a third none (a
        // zero-cost push fails check 5). Every run, copy by copy or whole
        // where a check fails, equals the kernel.
        #[test]
        fn per_copy_runs_match_the_kernel_on_random_p3_plans(
            tasks in prop::collection::vec((0usize..3, 0u64..4, 0u64..2), 1..24),
            cross in prop::collection::vec((0usize..1_000, 0usize..1_000), 0..40),
            pairs in prop::collection::vec(
                (0usize..1_000, 0usize..1_000, any::<bool>(), -1i64..2, 0usize..3),
                0..16,
            ),
            wires in prop::collection::vec(0u64..4, 1..32),
            zeros in 0u8..3,
        ) {
            use crate::replicate::replicate_iterations;
            use crate::whatif::{plan_p3_inserts, P3Insert, P3Scheduler};
            let threads = [
                CPU0,
                ExecThread::Gpu(DeviceId(0), StreamId(0)),
                ExecThread::Gpu(DeviceId(0), StreamId(1)),
            ];
            let m = tasks.len();
            let mut base = DependencyGraph::new();
            let mut last = [None; 3];
            for &(sel, dur, gap) in &tasks {
                let mut t = Task::new("t", TaskKind::CpuWork, threads[sel], dur);
                t.gap_ns = gap;
                let id = base.add_task(t);
                if let Some(prev) = last[sel].replace(id) {
                    base.add_dep(prev, id, DepKind::Transform);
                }
            }
            for &(a, b) in &cross {
                let (x, y) = (a % m, b % m);
                if tasks[x].0 != tasks[y].0 {
                    base.add_dep(TaskId(x.min(y)), TaskId(x.max(y)), DepKind::Transform);
                }
            }
            let mut rep = replicate_iterations(&base, 3);
            let inserts: Vec<P3Insert> = pairs
                .iter()
                .map(|&(from, to, gated, priority, k)| P3Insert {
                    bwd: rep.replica(k, TaskId(from % m)),
                    consumer: (gated && k < 2).then(|| rep.replica(k + 1, TaskId(to % m))),
                    priority,
                    bytes: 1,
                    wire_ns: 1,
                    push_name: "push".into(),
                    pull_name: "pull".into(),
                    start_hint_ns: 0,
                    iteration: k,
                })
                .collect();
            plan_p3_inserts(&mut rep.graph, &inserts);
            let cg = CompiledGraph::compile(&rep.graph);
            // Each pair adds its push, then its pull, after the copies.
            let mut staged: Vec<(u32, bool, u32)> = (0..)
                .zip(&inserts)
                .flat_map(|(i, ins)| {
                    let push = 3 * m as u32 + 2 * i;
                    let copy = ins.iteration as u32;
                    [(copy, false, push), (copy, true, push + 1)]
                })
                .collect();
            staged.sort_unstable();
            let transfers: Vec<(u32, u32)> = staged.iter().map(|&(q, _, c)| (q, c)).collect();
            let retimes: Vec<(CompactId, u64)> = (0..)
                .zip(&staged)
                .map(|(i, &(_, pull, c))| {
                    let wire = wires[i % wires.len()];
                    let zero = zeros == 0 || (zeros == 1 && pull);
                    (CompactId(c), if zero { wire } else { wire.max(1) })
                })
                .collect();
            let run = per_copy_and_kernel(&cg, &P3Scheduler, m, &transfers, &retimes);
            prop_assert_eq!(run.ends, run.kernel);
        }
    }

    /// A wide comm channel frontier — the shape that made the reference
    /// loop quadratic — still dispatches in id order at equal feasibility.
    #[test]
    fn wide_frontier_dispatches_in_id_order() {
        let mut g = DependencyGraph::new();
        let chan = ExecThread::Comm(crate::task::CommChannel::Collective);
        let ids: Vec<TaskId> = (0..50)
            .map(|_| g.add_task(Task::new("m", TaskKind::CpuWork, chan, 7)))
            .collect();
        let r = simulate_checked(&g).unwrap();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(r.start_of(id), 7 * i as u64);
        }
    }
}
