//! What-if models of the paper's ten optimizations (§5, appendix A).
//!
//! Every model is a composition of the §4.4 primitives — select, shrink/
//! scale, insert/remove, schedule — applied to a profiled dependency graph.
//! Each `plan_*` planner runs over any [`crate::GraphEdit`] target: a
//! [`crate::PatchGraph`] under [`crate::predict()`] or the sweep engine,
//! or a graph edited in place by the tests' oracles.
//! The five evaluated in §6 are tested against their ground-truth
//! executions in `daydream-runtime`; the other five are the §5.2 modeling
//! demonstrations.

mod amp;
mod bandwidth;
mod batch_size;
mod blueconnect;
mod dgc;
mod distributed;
mod fused_adam;
mod gist;
mod metaflow;
mod p3;
mod reconstruct_bn;
mod upgrade_gpu;
mod vdnn;

pub use amp::{plan_amp, COMPUTE_BOUND_GAIN, MEMORY_BOUND_GAIN};
pub use bandwidth::plan_bandwidth;
pub use batch_size::{plan_batch_size, KERNEL_OVERHEAD_NS};
pub use blueconnect::plan_blueconnect;
pub use dgc::{dgc_kernel_ns, plan_dgc, DgcConfig};
pub use distributed::plan_distributed;
pub use fused_adam::plan_fused_adam;
pub use gist::{plan_gist, GistConfig};
pub use metaflow::{plan_metaflow, qkv_fusion_policy, Substitution};
pub use p3::{
    p3_insert_plan, p3_replicated_base, plan_p3_inserts, P3Config, P3Insert, P3Plan, P3Prediction,
    P3Scheduler, P3_ITERATIONS,
};
pub use reconstruct_bn::plan_reconstruct_bn;
pub use upgrade_gpu::{plan_upgrade_gpu, GpuBound};
pub use vdnn::{plan_vdnn, VdnnConfig, VDNN_STREAM, VDNN_THREAD};

// The kernel rules planners select by, which the task index records.
pub(crate) use amp::uses_tensor_cores;
pub(crate) use gist::is_relu_kernel;
pub(crate) use upgrade_gpu::gpu_bound;
