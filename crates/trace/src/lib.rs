//! CUPTI-equivalent trace substrate for Daydream.
//!
//! The Daydream paper (Zhu et al., USENIX ATC 2020) builds its kernel-level
//! dependency graph from low-level traces collected by NVIDIA's CUPTI plus a
//! thin layer of framework instrumentation. This crate defines that trace
//! format and the analyses Daydream performs directly on traces:
//!
//! - [`Activity`] records with the exact fields CUPTI reports (name, start,
//!   duration, CPU thread / CUDA stream, correlation id);
//! - [`LayerMarker`] instrumentation windows used for the
//!   synchronization-free task-to-layer mapping (paper §4.3);
//! - [`TraceMeta`] with gradient sizes and DDP bucket maps needed to predict
//!   distributed training from a single-GPU profile (paper §4.2.1);
//! - [`Trace`] container with structural validation (per-lane serialization,
//!   correlation-id integrity);
//! - [`runtime_breakdown`] implementing the CPU-only / GPU-only / CPU+GPU
//!   decomposition of paper Fig. 6;
//! - Chrome-trace export for visual inspection ([`to_chrome_trace`]);
//! - hash-chained append-only JSONL emission with tamper/truncation
//!   detection ([`TraceWriter`], [`from_jsonl`], [`verify_jsonl`]);
//! - schedule↔trace fidelity diff with per-op error attribution
//!   ([`diff_traces`]).
//!
//! No CUDA hardware is required: the `daydream-runtime` crate produces
//! traces in this format from a calibrated execution model, and real CUPTI
//! dumps could be converted to it with a thin adapter.

mod activity;
mod analysis;
mod chrome;
mod diff;
mod ids;
mod intervals;
mod jsonl;
mod marker;
mod meta;
mod trace;

pub use activity::{Activity, ActivityKind, CudaApi, MemcpyDir};
pub use analysis::{
    iteration_window, lane_stats, max_concurrency, runtime_breakdown, LaneStats, RuntimeBreakdown,
};
pub use chrome::to_chrome_trace;
pub use diff::{diff_traces, LaneDiff, OpDiff, OpGroupError, PhaseDiff, TraceDiff};
pub use ids::{ActivityId, CorrelationId, CpuThreadId, DeviceId, Lane, LayerId, StreamId};
pub use intervals::IntervalSet;
pub use jsonl::{
    fnv1a64_continue, from_jsonl, to_jsonl, verify_jsonl, ChainSummary, TraceWriter, FNV_OFFSET,
    JSONL_VERSION,
};
pub use marker::{LayerMarker, Phase};
pub use meta::{BucketInfo, Framework, GradientInfo, TraceMeta};
pub use trace::{Trace, TraceError};
