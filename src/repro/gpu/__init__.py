"""Simulated CUDA substrate.

No CUDA/GPU exists in this environment, so the paper's device-side
machinery is reproduced as a *simulation substrate* with three layers:

1. **Resource model** (:mod:`repro.gpu.device`, :mod:`repro.gpu.memory`,
   :mod:`repro.gpu.stream`): devices with V100-like properties, memory
   accounting that enforces the 32 GB HBM limit (driving database
   partitioning exactly like the real system), and streams/events with
   simulated timelines so pipeline overlap is modeled like CUDA's.
2. **Warp-level kernel emulation** (:mod:`repro.gpu.warp`,
   :mod:`repro.gpu.kernels`): the cooperative algorithms of Section 5
   (shuffle-based encoding, register bitonic sort, segmented
   reduction, per-thread top lists) executed thread-by-thread on
   32-lane NumPy vectors.  Slow, but step-for-step faithful -- the
   tests cross-check them against the fast batch implementations.
3. **Cost model** (:mod:`repro.gpu.costmodel`): an analytical
   throughput model with constants calibrated against the paper's
   DGX-1 measurements, used by the bench harness to project mini-scale
   runs to paper-scale (Tables 3-5, Figures 4-5).

The serving layers (:mod:`repro.api`, :mod:`repro.server`,
:mod:`repro.shard`, :mod:`repro.parallel`, :mod:`repro.pipeline` and
:mod:`repro.core.query`) do not import this package directly at run
time (repro-lint RL007): multi-partition queries merge with
:meth:`repro.core.candidates.Candidates.merged_with` in-process and
:func:`repro.core.merge.merge_partition_runs` across shards.
"""

from repro.gpu.device import DeviceSpec, Device, V100_32GB, DGX1_SPECS
from repro.gpu.memory import MemoryPool, OutOfDeviceMemory
from repro.gpu.stream import Stream, Event
from repro.gpu.costmodel import CostModel, DGX1_COST_MODEL, HostSpec, DGX1_HOST
from repro.gpu.pipeline_sim import BatchPipelineSim, PipelineResult

__all__ = [
    "DeviceSpec",
    "Device",
    "V100_32GB",
    "DGX1_SPECS",
    "MemoryPool",
    "OutOfDeviceMemory",
    "Stream",
    "Event",
    "CostModel",
    "DGX1_COST_MODEL",
    "HostSpec",
    "DGX1_HOST",
    "BatchPipelineSim",
    "PipelineResult",
]
