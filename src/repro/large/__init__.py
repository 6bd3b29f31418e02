"""Large-graph (out-of-device-memory) training engine — Section 3.3 of the paper."""

from .gpu_state import GPUState
from .pipeline import (
    DEFAULT_EXECUTION_MODE,
    EXECUTION_MODES,
    PipelinedExecutor,
    PipelineStats,
    PoolEvent,
    PoolPreparer,
    ReadyPool,
    ScheduleEntry,
    SequentialExecutor,
    UnknownExecutionModeError,
    build_schedule,
    create_executor,
    kernel_rng,
)
from .rotation import count_switches, inside_out_order, naive_order, validate_rotation_cover
from .sample_pool import PoolDirection, SamplePool, SamplePoolManager, pool_rng
from .scheduler import (
    LargeGraphConfig,
    LargeGraphStats,
    LargeGraphTrainer,
    train_large_graph,
)

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
    "DEFAULT_EXECUTION_MODE",
    "EXECUTION_MODES",
    "PipelinedExecutor",
    "SequentialExecutor",
    "PipelineStats",
    "PoolEvent",
    "PoolPreparer",
    "ReadyPool",
    "ScheduleEntry",
    "UnknownExecutionModeError",
    "build_schedule",
    "create_executor",
    "LargeGraphConfig",
    "LargeGraphStats",
    "LargeGraphTrainer",
    "train_large_graph",
]
