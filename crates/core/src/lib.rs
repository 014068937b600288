//! Daydream: what-if analysis for DNN training (Zhu et al., USENIX ATC'20).
//!
//! Daydream answers questions like *"will mixed precision help my model on
//! my hardware?"* without implementing the optimization. The pipeline
//! (paper §4):
//!
//! 1. **Trace collection** — a CUPTI-style profile plus layer markers
//!    (`daydream-trace`, produced here by the `daydream-runtime` execution
//!    simulator).
//! 2. **Graph construction** ([`ProfiledGraph::from_trace`]) — a
//!    kernel-granularity dependency graph with the five dependency types of
//!    §4.2.2, and the synchronization-free task-to-layer mapping of §4.3.
//! 3. **Graph transformation** ([`transform`], [`whatif`]) — model an
//!    optimization with select / shrink / insert / remove / schedule
//!    primitives, recorded as a [`GraphPatch`] over the profile; ten
//!    ready-made models cover the paper's Table 1 set.
//! 4. **Simulation** ([`simulate_warm`], paper Algorithm 1) — replay the
//!    patched graph over the compiled baseline to predict iteration time
//!    ([`predict()`] runs steps 3–4 for one what-if).
//!
//! # Examples
//!
//! ```
//! use daydream_core::{predict, whatif, ProfiledGraph};
//! use daydream_models::zoo;
//! use daydream_runtime::{ground_truth, ExecConfig};
//!
//! // Profile one training iteration of ResNet-50 (batch 8 for speed).
//! let model = zoo::resnet50();
//! let cfg = ExecConfig::pytorch_2080ti().with_batch(8);
//! let trace = ground_truth::run_baseline(&model, &cfg);
//!
//! // What if we enabled mixed precision? The planner records a patch
//! // over the profile, simulated warm over the compiled baseline.
//! let profile = ProfiledGraph::from_trace(&trace);
//! let prediction = predict(&profile, whatif::plan_amp);
//! assert!(prediction.speedup() > 1.0);
//! ```

pub mod compiled;
pub mod construct;
pub mod export;
pub mod graph;
pub mod index;
pub mod layer_map;
pub mod patch;
pub mod predict;
pub mod replicate;
pub mod report;
pub mod sim;
pub mod task;
pub mod transform;
pub mod whatif;

pub use compiled::{ApplyTrace, CompactId, CompiledGraph, ThreadId};
pub use construct::{build_graph, ProfiledGraph};
pub use export::{sim_to_trace, simulate_to_trace};
pub use graph::{DepKind, DependencyGraph, GraphEdit, GraphError, GraphView, TaskId};
pub use index::{Edits, LayerAnchors, TaskIndex};
pub use patch::{GraphPatch, PatchGraph, PatchOp, PatchSummary};
pub use predict::{predict, Prediction};
pub use replicate::{replicate_iterations, ReplicatedGraph};
pub use report::{layer_report, LayerTimes};
pub use sim::{
    simulate, simulate_compiled, simulate_compiled_mixed, simulate_compiled_with,
    simulate_reference, simulate_warm, simulate_warm_with, simulate_with, thread_busy_ns,
    try_simulate_warm_with, CompiledSim, EarliestStart, FrontierOrder, IncrementalStats, Rank,
    Schedule, ScratchCounters, ScratchPool, SimResult, SimScratch, WarmOutcome,
    DEFAULT_MAX_CONE_FRACTION,
};
pub use task::{CommChannel, CommPrimitive, ExecThread, LayerRef, Task, TaskKind};
