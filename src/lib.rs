//! Daydream — what-if analysis for DNN training.
//!
//! A from-scratch reproduction of *"Daydream: Accurately Estimating the
//! Efficacy of Optimizations for DNN Training"* (Zhu, Phanishayee,
//! Pekhimenko — USENIX ATC 2020), including every substrate the paper's
//! system depends on: a CUPTI-equivalent trace format, a DNN model zoo, a
//! GPU roofline cost model, communication cost models, and a framework
//! execution simulator that doubles as the ground truth for every
//! evaluated optimization.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`trace`] | `daydream-trace` | activity records, layer markers, breakdowns |
//! | [`models`] | `daydream-models` | the Table 2 model zoo |
//! | [`device`] | `daydream-device` | GPU/CPU cost models |
//! | [`comm`] | `daydream-comm` | collectives, parameter server, NCCL interference |
//! | [`runtime`] | `daydream-runtime` | execution simulator + ground truths |
//! | [`core`] | `daydream-core` | dependency graph, primitives, simulator, what-ifs |
//! | [`sweep`] | `daydream-sweep` | parallel scenario-sweep engine with ranked reports |
//! | [`shard`] | `daydream-shard` | distributed sweep sharding, run store, report merge/diff |
//!
//! # Examples
//!
//! ```
//! use daydream::core::{predict, whatif, ProfiledGraph};
//! use daydream::models::zoo;
//! use daydream::runtime::{ground_truth, ExecConfig};
//!
//! let model = zoo::resnet50();
//! let cfg = ExecConfig::pytorch_2080ti().with_batch(8);
//! let trace = ground_truth::run_baseline(&model, &cfg);
//! let profile = ProfiledGraph::from_trace(&trace);
//! let amp = predict(&profile, whatif::plan_amp);
//! assert!(amp.speedup() > 1.0);
//! ```

pub use daydream_comm as comm;
pub use daydream_core as core;
pub use daydream_device as device;
pub use daydream_models as models;
pub use daydream_runtime as runtime;
pub use daydream_shard as shard;
pub use daydream_sweep as sweep;
pub use daydream_trace as trace;

/// Convenience re-exports for the common profile-transform-simulate loop.
pub mod prelude {
    pub use daydream_comm::ClusterConfig;
    pub use daydream_core::{
        predict, simulate, simulate_to_trace, whatif, DependencyGraph, ProfiledGraph, SimResult,
        TaskId,
    };
    pub use daydream_models::{zoo, Model};
    pub use daydream_runtime::{ground_truth, ExecConfig, Executor};
    pub use daydream_shard::{
        diff_runs, merge_run, run_worker, FaultPlan, Recovery, RetryPolicy, RunDir, RunStore,
        ShardError, ShardPlan, WorkerConfig,
    };
    pub use daydream_sweep::{OptSpec, Scenario, SweepEngine, SweepGrid, SweepReport};
    pub use daydream_trace::{
        diff_traces, from_jsonl, runtime_breakdown, to_jsonl, verify_jsonl, Trace, TraceDiff,
        TraceWriter,
    };
}
