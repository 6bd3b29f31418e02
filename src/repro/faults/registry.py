"""Deterministic fault injection for the training pipeline.

The serving tier earned its robustness guarantees through *injected* failures
(PR 8: dead/hung/flapping shards pinned by deterministic tests).  This module
gives the production side — coarsen → train → store — the same discipline: a
registry of **named injection points** threaded through the code paths that a
real crash would interrupt.  Tests (and the ``embed --inject-fault point:n``
CLI knob) arm a point to raise at its n-th crossing; unarmed points cost one
counter increment and are no-ops otherwise.

Injection points
----------------

===================  =====================================================
``level-boundary``    after one hierarchy level finished training (and its
                      boundary checkpoint, if any, was committed) —
                      :meth:`repro.embedding.gosh.GoshEmbedder.embed`
``rotation-boundary`` after one rotation of the partitioned engine finished
                      (post rotation checkpoint) —
                      :class:`repro.large.scheduler.LargeGraphTrainer`
``pool-producer``     before a sample pool is built, on the producer
                      thread; the fault re-raises at the consumer's next
                      pop — :class:`repro.large.pipeline.PipelinedExecutor`
``store-commit``      at the store's atomic commit point, *before* the
                      staging-dir rename — simulates a writer SIGKILLed
                      mid-save, deliberately leaking the ``.tmp-*`` dir —
                      :meth:`repro.store.store.EmbeddingStore.save`
``device-oom``        before a device allocation succeeds; raises
                      :class:`~repro.gpu.device.DeviceMemoryError` so the
                      trainer's degradation path engages —
                      :meth:`repro.gpu.device.SimulatedDevice.allocate`
===================  =====================================================

Counting is *per arm*: ``arm(point, at=n)`` fires at the n-th crossing
**after** arming, then disarms itself (one-shot).  That makes the kill point
a pure function of the schedule — the basis of the resume-parity golden
tests, which kill a run at an exact boundary and prove the resumed run
bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = [
    "FAULT_POINTS",
    "FaultRegistry",
    "InjectedFault",
    "UnknownFaultPointError",
    "FAULTS",
    "parse_fault_spec",
]

#: Every registered injection point and where it lives.
FAULT_POINTS: dict[str, str] = {
    "level-boundary": "GoshEmbedder.embed — after a hierarchy level completes",
    "rotation-boundary": "LargeGraphTrainer — after a rotation completes",
    "pool-producer": "pipeline executors — before a sample pool is built",
    "store-commit": "EmbeddingStore.save — before the atomic rename",
    "device-oom": "SimulatedDevice.allocate — raises DeviceMemoryError",
}


class UnknownFaultPointError(ValueError):
    """Raised when arming (or parsing) a point name that is not registered."""

    def __init__(self, point: str):
        super().__init__(
            f"unknown fault point {point!r}; options: {', '.join(sorted(FAULT_POINTS))}")
        self.point = point


class InjectedFault(RuntimeError):
    """The failure an armed injection point raises at its scheduled crossing.

    ``leaves_partial_state`` tells the crossing's cleanup handlers to behave
    like a SIGKILL (skip their normal tidy-up) — the ``store-commit`` point
    uses it to leak its staging directory the way a killed writer would.
    """

    def __init__(self, point: str, crossing: int, context: dict[str, object]):
        detail = ", ".join(f"{k}={v}" for k, v in sorted(context.items()))
        super().__init__(
            f"injected fault at {point!r} (crossing {crossing}"
            + (f"; {detail}" if detail else "") + ")")
        self.point = point
        self.crossing = crossing
        self.context = dict(context)
        self.leaves_partial_state = point == "store-commit"


def _default_exception(point: str, crossing: int,
                       context: dict[str, object]) -> BaseException:
    if point == "device-oom":
        # Imported lazily: repro.gpu.device itself crosses this registry, so
        # a module-level import would be circular.
        from ..gpu.device import DeviceMemoryError

        return DeviceMemoryError(
            f"injected device OOM (crossing {crossing} of 'device-oom')")
    return InjectedFault(point, crossing, context)


class _ArmedPoint:
    """One armed injection: fire when ``remaining`` crossings have passed."""

    __slots__ = ("remaining", "exception")

    def __init__(self, at: int,
                 exception: Callable[[str, int, dict[str, object]], BaseException]):
        self.remaining = at
        self.exception = exception


class FaultRegistry:
    """Thread-safe registry of armable, deterministic injection points.

    One process-wide instance (:data:`FAULTS`) is threaded through the
    pipeline; tests that need isolation can construct their own and reset
    the global one around each case (see ``tests/faults/conftest.py``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._armed: dict[str, _ArmedPoint] = {}
        self._crossings: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Arming
    # ------------------------------------------------------------------ #
    def arm(self, point: str, at: int = 1, *,
            exception: Callable[[str, int, dict[str, object]], BaseException]
            | None = None) -> None:
        """Arm ``point`` to raise at its ``at``-th crossing from now.

        ``exception`` overrides the raised error; by default every point
        raises :class:`InjectedFault` except ``device-oom``, which raises
        the real :class:`~repro.gpu.device.DeviceMemoryError` so the
        degradation path under test is the production one.
        """
        if point not in FAULT_POINTS:
            raise UnknownFaultPointError(point)
        if at < 1:
            raise ValueError(f"at must be >= 1, got {at}")
        with self._lock:
            self._armed[point] = _ArmedPoint(at, exception or _default_exception)

    def disarm(self, point: str | None = None) -> None:
        """Disarm one point (or all of them) without touching the counters."""
        with self._lock:
            if point is None:
                self._armed.clear()
            else:
                self._armed.pop(point, None)

    def reset(self) -> None:
        """Disarm everything and zero the lifetime crossing counters."""
        with self._lock:
            self._armed.clear()
            self._crossings.clear()

    @contextmanager
    def armed(self, spec: str) -> Iterator[None]:
        """Context manager: ``with FAULTS.armed("rotation-boundary:2"): ...``.

        Disarms the point (fired or not) and leaves the rest of the registry
        untouched on exit.
        """
        point, at = parse_fault_spec(spec)
        self.arm(point, at)
        try:
            yield
        finally:
            self.disarm(point)

    # ------------------------------------------------------------------ #
    # Crossing
    # ------------------------------------------------------------------ #
    def crossing(self, point: str, **context: object) -> None:
        """Record one crossing of ``point``; raise if an armed count expires.

        The armed entry is removed *before* raising (one-shot), so a retry
        loop that catches the injected error — the trainer's OOM degradation
        path — makes progress instead of dying forever.
        """
        if point not in FAULT_POINTS:
            raise UnknownFaultPointError(point)
        with self._lock:
            self._crossings[point] = self._crossings.get(point, 0) + 1
            count = self._crossings[point]
            armed = self._armed.get(point)
            if armed is None:
                return
            armed.remaining -= 1
            if armed.remaining > 0:
                return
            del self._armed[point]
            exception = armed.exception
        raise exception(point, count, dict(context))

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def crossings(self, point: str) -> int:
        """Lifetime crossing count for ``point`` (since the last reset)."""
        if point not in FAULT_POINTS:
            raise UnknownFaultPointError(point)
        with self._lock:
            return self._crossings.get(point, 0)

    def is_armed(self, point: str) -> bool:
        with self._lock:
            return point in self._armed

    def snapshot(self) -> dict[str, object]:
        """Counters + armed points, for stats endpoints and debugging."""
        with self._lock:
            return {
                "crossings": dict(self._crossings),
                "armed": {p: a.remaining for p, a in self._armed.items()},
            }


def parse_fault_spec(spec: str) -> tuple[str, int]:
    """Parse a ``point[:n]`` CLI spec into ``(point, at)``; ``n`` defaults to 1."""
    point, sep, count = spec.partition(":")
    point = point.strip()
    if point not in FAULT_POINTS:
        raise UnknownFaultPointError(point)
    if not sep:
        return point, 1
    try:
        at = int(count)
    except ValueError:
        raise ValueError(
            f"bad fault spec {spec!r}: expected point:n with integer n") from None
    if at < 1:
        raise ValueError(f"bad fault spec {spec!r}: n must be >= 1")
    return point, at


#: The process-wide registry the pipeline crosses.
FAULTS = FaultRegistry()
