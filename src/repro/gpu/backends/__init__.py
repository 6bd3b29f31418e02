"""Kernel backend layer: swappable implementations of the training kernels.

Two built-in backends implement the :class:`~repro.gpu.backends.base.KernelBackend`
protocol:

* ``"reference"`` — the original loop-based kernels (chunked staging, exact
  sigmoid, ``np.add.at`` accumulation).  Semantic oracle.
* ``"vectorized"`` — whole-epoch batched NumPy ops (fused sigmoid LUT,
  deterministic last-writer-wins scatter, precomputed index arrays); ≥5×
  faster on 50k-edge graphs, numerically close to the reference (tolerances
  pinned by the kernel-parity suite).  Default.

Both GOSH trainers always run the vectorized backend (the partitioned engine
also needs its ``prepare_pair``); MILE trains on the reference one.  The one
place a backend is selected is :class:`~repro.embedding.trainer.LevelTrainer`
(``backend``, a registered name or an instance).  Third-party backends plug in
with :func:`register_backend`.
"""

from __future__ import annotations

from ...registry import Registry, UnknownNameError
from .base import EPOCH_KERNELS, KernelBackend
from .reference import ReferenceBackend
from .vectorized import VectorizedBackend

__all__ = [
    "EPOCH_KERNELS",
    "KernelBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "UnknownBackendError",
    "DEFAULT_BACKEND",
    "KERNEL_BACKENDS",
    "register_backend",
    "get_backend",
    "available_backends",
]

#: The backend used when nothing selects one explicitly.  The reference
#: backend remains the semantic oracle for the parity suites.
DEFAULT_BACKEND = "vectorized"

KERNEL_BACKENDS: Registry[KernelBackend] = Registry(
    "kernel backend", {"reference": ReferenceBackend, "vectorized": VectorizedBackend},
    default=DEFAULT_BACKEND)

UnknownBackendError = UnknownNameError
register_backend = KERNEL_BACKENDS.register
#: Resolve a name (cached singleton per name), ``None`` (the default) or an
#: object already implementing the protocol (returned as-is).
get_backend = KERNEL_BACKENDS.get
available_backends = KERNEL_BACKENDS.names
