"""Large-graph (out-of-device-memory) training engine — Section 3.3 of the paper."""

from .gpu_state import GPUState
from .pipeline import (
    PipelinedExecutor,
    PipelineStats,
    PoolPreparer,
    ReadyPool,
    ScheduleEntry,
    build_schedule,
    kernel_rng,
)
from .rotation import count_switches, inside_out_order, naive_order, validate_rotation_cover
from .sample_pool import PoolDirection, SamplePool, SamplePoolManager, pool_rng
from .scheduler import LargeGraphStats, LargeGraphTrainer

__all__ = [
    "GPUState",
    "count_switches",
    "inside_out_order",
    "naive_order",
    "validate_rotation_cover",
    "PoolDirection",
    "SamplePool",
    "SamplePoolManager",
    "pool_rng",
    "kernel_rng",
    "PipelinedExecutor",
    "PipelineStats",
    "PoolPreparer",
    "ReadyPool",
    "ScheduleEntry",
    "build_schedule",
    "LargeGraphStats",
    "LargeGraphTrainer",
]
