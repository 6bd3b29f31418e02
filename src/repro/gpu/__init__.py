"""Simulated GPU substrate: device memory model, warp model, kernels, backends."""

from .backends import (
    KernelBackend,
    ReferenceBackend,
    UnknownBackendError,
    VectorizedBackend,
    available_backends,
    get_backend,
    register_backend,
)
from .device import (
    TITAN_X,
    DeviceBuffer,
    DeviceMemoryError,
    DeviceSpec,
    SimulatedDevice,
    embedding_fits_on_device,
)
from .kernels import (
    SigmoidTable,
    build_index_lookup,
    sigmoid,
    train_epoch_naive,
    train_epoch_optimized,
    train_pair_kernel,
    update_embedding_pair,
)
from .warp import WarpConfig, WarpSchedule, vertices_per_warp, warp_lane_efficiency

__all__ = [
    "KernelBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "UnknownBackendError",
    "available_backends",
    "get_backend",
    "register_backend",
    "build_index_lookup",
    "TITAN_X",
    "DeviceBuffer",
    "DeviceMemoryError",
    "DeviceSpec",
    "SimulatedDevice",
    "embedding_fits_on_device",
    "SigmoidTable",
    "sigmoid",
    "train_epoch_naive",
    "train_epoch_optimized",
    "train_pair_kernel",
    "update_embedding_pair",
    "WarpConfig",
    "WarpSchedule",
    "vertices_per_warp",
    "warp_lane_efficiency",
]
