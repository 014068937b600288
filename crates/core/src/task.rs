//! Tasks: the nodes of Daydream's kernel-granularity dependency graph.
//!
//! A task carries exactly the fields of paper §4.2.1: an execution thread
//! (CPU process, GPU stream, or communication channel), a duration, the gap
//! to its thread successor (non-CUDA CPU time CUPTI cannot see), and the
//! DNN layer it maps to.

use daydream_trace::{
    CorrelationId, CpuThreadId, CudaApi, DeviceId, LayerId, MemcpyDir, Phase, StreamId,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A communication channel identity.
///
/// Parameter-server frameworks use distinct send/receive channels; NCCL
/// collectives use one unified channel (paper §4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CommChannel {
    /// Worker-to-server direction (push).
    Send,
    /// Server-to-worker direction (pull).
    Receive,
    /// Collective channel (all-reduce and friends).
    Collective,
    /// A BlueConnect stage channel: stage `i` of the hierarchical
    /// decomposition runs on its own parallel network channel (paper §5.2).
    Stage(u8),
}

/// The execution timeline a task occupies (paper Algorithm 1, line 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ExecThread {
    /// A CPU process/thread.
    Cpu(CpuThreadId),
    /// A CUDA stream on a device.
    Gpu(DeviceId, StreamId),
    /// A communication channel.
    Comm(CommChannel),
}

impl ExecThread {
    /// Returns `true` for CPU threads.
    pub fn is_cpu(&self) -> bool {
        matches!(self, ExecThread::Cpu(_))
    }

    /// Returns `true` for GPU streams.
    pub fn is_gpu(&self) -> bool {
        matches!(self, ExecThread::Gpu(_, _))
    }

    /// Returns `true` for communication channels.
    pub fn is_comm(&self) -> bool {
        matches!(self, ExecThread::Comm(_))
    }
}

impl fmt::Display for ExecThread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecThread::Cpu(t) => write!(f, "cpu:{}", t.0),
            ExecThread::Gpu(d, s) => write!(f, "gpu{}:s{}", d.0, s.0),
            ExecThread::Comm(c) => write!(f, "comm:{c:?}"),
        }
    }
}

/// Communication primitive kinds (paper §4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommPrimitive {
    /// NCCL-style ring all-reduce.
    AllReduce,
    /// Parameter-server push (worker to server).
    Push,
    /// Parameter-server pull (server to worker).
    Pull,
    /// BlueConnect stage: reduce-scatter.
    ReduceScatter,
    /// BlueConnect stage: all-gather.
    AllGather,
}

/// What a task does.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// A CPU-side CUDA runtime API call.
    CpuApi(CudaApi),
    /// Non-CUDA CPU work treated as a task (data loading, §4.2.1).
    CpuWork,
    /// A GPU kernel.
    GpuKernel,
    /// A GPU-side memory copy.
    GpuMemcpy {
        /// Copy direction.
        dir: MemcpyDir,
        /// Payload bytes.
        bytes: u64,
    },
    /// A communication primitive.
    Communication {
        /// Primitive type.
        prim: CommPrimitive,
        /// Payload bytes.
        bytes: u64,
    },
}

impl TaskKind {
    /// Returns `true` for GPU-side kinds (kernels and copies).
    pub fn is_gpu(&self) -> bool {
        matches!(self, TaskKind::GpuKernel | TaskKind::GpuMemcpy { .. })
    }
}

/// The layer/phase a task belongs to, produced by the synchronization-free
/// mapping of paper §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerRef {
    /// The layer.
    pub layer: LayerId,
    /// The training phase of that layer.
    pub phase: Phase,
}

/// One node of the dependency graph.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct Task {
    /// Kernel or API name (select-by-keyword operates on this, §4.4).
    pub name: String,
    /// What the task does.
    pub kind: TaskKind,
    /// The thread Algorithm 1 dispatches the task to.
    pub thread: ExecThread,
    /// Duration in nanoseconds (mutable by shrink/scale primitives).
    pub duration_ns: u64,
    /// Gap to the thread successor (Algorithm 1 line 13).
    pub gap_ns: u64,
    /// Layer/phase mapping, if known.
    pub layer: Option<LayerRef>,
    /// CUPTI correlation id carried over from the trace.
    pub correlation: Option<CorrelationId>,
    /// Start time measured in the profiled run (informational; the
    /// simulator recomputes starts).
    pub measured_start_ns: u64,
    /// Scheduling priority for custom [`crate::sim::FrontierOrder`]s (P3).
    pub priority: i64,
}

impl Task {
    /// Creates a task with the given name/kind/thread/duration and neutral
    /// remaining fields.
    pub fn new(
        name: impl Into<String>,
        kind: TaskKind,
        thread: ExecThread,
        duration_ns: u64,
    ) -> Self {
        Task {
            name: name.into(),
            kind,
            thread,
            duration_ns,
            gap_ns: 0,
            layer: None,
            correlation: None,
            measured_start_ns: 0,
            priority: 0,
        }
    }

    /// Returns `true` if the task runs on a GPU stream.
    pub fn is_on_gpu(&self) -> bool {
        self.thread.is_gpu()
    }

    /// Time the task occupies its thread: duration plus the trailing gap
    /// to its thread successor (Algorithm 1 line 13).
    #[inline]
    pub fn cost_ns(&self) -> u64 {
        self.duration_ns + self.gap_ns
    }

    /// Returns `true` if the task belongs to the given phase.
    pub fn in_phase(&self, phase: Phase) -> bool {
        self.layer.map(|l| l.phase == phase).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_predicates() {
        assert!(ExecThread::Cpu(CpuThreadId(0)).is_cpu());
        assert!(ExecThread::Gpu(DeviceId(0), StreamId(0)).is_gpu());
        assert!(ExecThread::Comm(CommChannel::Send).is_comm());
    }

    #[test]
    fn task_phase_check() {
        let mut t = Task::new(
            "k",
            TaskKind::GpuKernel,
            ExecThread::Gpu(DeviceId(0), StreamId(0)),
            100,
        );
        assert!(!t.in_phase(Phase::Forward));
        t.layer = Some(LayerRef {
            layer: LayerId(3),
            phase: Phase::Forward,
        });
        assert!(t.in_phase(Phase::Forward));
        assert!(!t.in_phase(Phase::Backward));
        assert!(t.is_on_gpu());
    }

    #[test]
    fn kind_gpu_check() {
        assert!(TaskKind::GpuKernel.is_gpu());
        assert!(TaskKind::GpuMemcpy {
            dir: MemcpyDir::HostToDevice,
            bytes: 1
        }
        .is_gpu());
        assert!(!TaskKind::CpuWork.is_gpu());
        assert!(!TaskKind::Communication {
            prim: CommPrimitive::AllReduce,
            bytes: 1
        }
        .is_gpu());
    }

    #[test]
    fn thread_ordering_is_stable() {
        let mut v = [
            ExecThread::Comm(CommChannel::Send),
            ExecThread::Gpu(DeviceId(0), StreamId(1)),
            ExecThread::Cpu(CpuThreadId(2)),
        ];
        v.sort();
        assert!(v[0].is_cpu());
        assert!(v[2].is_comm());
    }
}
