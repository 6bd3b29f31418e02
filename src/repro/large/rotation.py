"""Inside-out rotation order over sub-matrix pairs (Section 3.3.1).

During one *rotation* every unordered pair of parts (including each part with
itself) must be co-resident on the device exactly once.  The order matters
because it determines how many sub-matrix swaps are needed: the paper follows
the "inside-out" order of PyTorch-BigGraph, which keeps one part anchored
while the partner advances, so consecutive kernels share one resident
sub-matrix and only the other needs to be switched.

The recurrence from the paper, with ``(a_0, b_0) = (0, 0)``:

* if ``a_{j-1} > b_{j-1}``: ``(a_j, b_j) = (a_{j-1}, b_{j-1} + 1)``
* if ``a_{j-1} = b_{j-1}``: ``(a_j, b_j) = (a_{j-1} + 1, 0)``

which enumerates (0,0), (1,0), (1,1), (2,0), (2,1), (2,2), ... — all
``K(K+1)/2`` pairs.
"""

from __future__ import annotations

__all__ = ["inside_out_order", "naive_order", "count_switches"]


def inside_out_order(num_parts: int) -> list[tuple[int, int]]:
    """All part pairs (a, b) with a >= b in the paper's inside-out order."""
    if num_parts <= 0:
        raise ValueError("num_parts must be positive")
    pairs: list[tuple[int, int]] = [(0, 0)]
    a, b = 0, 0
    total = num_parts * (num_parts + 1) // 2
    while len(pairs) < total:
        if a > b:
            b += 1
        else:  # a == b
            a += 1
            b = 0
        pairs.append((a, b))
    return pairs


def naive_order(num_parts: int) -> list[tuple[int, int]]:
    """Row-major pair order (the baseline the inside-out order improves on)."""
    return [(a, b) for a in range(num_parts) for b in range(a + 1)]


def count_switches(order: list[tuple[int, int]], resident_slots: int) -> int:
    """Number of sub-matrix switches an order needs with ``resident_slots`` bins.

    A simple LRU occupancy simulation: processing pair (a, b) requires both
    parts resident; each miss costs one switch.  This is the quantity the
    P_GPU = 3 setting is chosen to hide (Section 3.3.2).
    """
    if resident_slots < 2:
        raise ValueError("need at least two resident slots")
    resident: list[int] = []
    switches = 0
    for a, b in order:
        for part in (a, b):
            if part in resident:
                resident.remove(part)
                resident.append(part)       # refresh LRU position
                continue
            if len(resident) >= resident_slots:
                resident.pop(0)             # evict least recently used
            resident.append(part)
            switches += 1
    return switches


def validate_rotation_cover(order: list[tuple[int, int]], num_parts: int) -> bool:
    """True iff every unordered pair (including self pairs) appears exactly once."""
    seen = set()
    for a, b in order:
        key = (max(a, b), min(a, b))
        if key in seen:
            return False
        seen.add(key)
    expected = {(a, b) for a in range(num_parts) for b in range(a + 1)}
    return seen == expected
