"""Host-side sampler backends: swappable ``sample_pairs_for_part`` engines.

GOSH's large-graph engine (Section 3.3) draws every positive sample on the
host while the device trains part pairs, so host-side sampling throughput
directly bounds rotation speed.  This module makes the part-pair sampler
pluggable behind the :class:`SamplerBackend` protocol, mirroring the kernel
layer in :mod:`repro.gpu.backends`:

* ``"reference"`` — the original per-vertex Python loop over CSR rows.
  Semantic oracle.
* ``"vectorized"`` — whole-part batched NumPy sampling over a
  :class:`FilteredAdjacency` sub-CSR (only the edges landing in the partner
  part), built once per (part, partner-part) and reused across rotations
  through a :class:`FilteredAdjacencyCache`.  Default; ≥5× faster pool
  production on 50k-edge graphs (floor enforced by
  ``benchmarks/test_sampler_backend_perf.py``).
* ``"degree_biased"`` — GraphVite-style positive weighting: a vertex's
  partner-part neighbours are drawn proportionally to ``deg^0.75`` instead
  of uniformly, concentrating positive updates on hub neighbours.  Consumes
  randomness exactly like the other backends (one row of B uniforms per
  eligible vertex) but maps each uniform through the row's cumulative
  weight profile, so it shares the batched machinery without sharing the
  uniform-draw semantics (no reference-parity claim).

**Exact parity.**  Both backends consume randomness identically: one row of
``count_per_vertex`` float64 uniforms per *eligible* vertex (a vertex with at
least one neighbour inside the partner part), mapped to a neighbour index
with ``floor(u * count)``.  NumPy's ``Generator.random`` fills arrays
sequentially from the bit stream, so the reference loop's per-vertex
``rng.random(B)`` calls and the vectorized backend's single
``rng.random((n_eligible, B))`` draw produce bit-identical uniforms — the
two backends therefore return *identical* ``(src, dst)`` arrays from a
shared seeded Generator.  Parity is pinned by
``tests/graph/test_sampler_backends.py``.  (``floor(u * count)`` deviates
from a perfectly uniform draw by less than ``count * 2**-53`` per bucket —
negligible against the paper's "almost equivalent to B×K epochs" caveat.)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from ..registry import Registry, UnknownNameError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .csr import CSRGraph
    from .partition import VertexPartition

__all__ = [
    "FilteredAdjacency",
    "FilteredAdjacencyCache",
    "build_filtered_adjacency",
    "SamplerBackend",
    "ReferenceSamplerBackend",
    "VectorizedSamplerBackend",
    "DegreeBiasedSamplerBackend",
    "UnknownSamplerBackendError",
    "DEFAULT_SAMPLER_BACKEND",
    "SAMPLER_BACKENDS",
    "register_sampler_backend",
    "get_sampler_backend",
    "available_sampler_backends",
]


def _empty_pairs() -> tuple[np.ndarray, np.ndarray]:
    return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)


def pick_indices(u: np.ndarray, counts: np.ndarray | int) -> np.ndarray:
    """Map uniforms in [0, 1) to indices in ``[0, counts)`` — shared by both
    backends so their draws stay bit-identical.

    The ``minimum`` guard covers the (representable but never produced by
    ``Generator.random``) corner where ``u * counts`` rounds up to ``counts``.
    """
    idx = (u * counts).astype(np.int64)
    return np.minimum(idx, np.asarray(counts, dtype=np.int64) - 1)


# --------------------------------------------------------------------------- #
# Filtered adjacency (sub-CSR of edges landing in the partner part)
# --------------------------------------------------------------------------- #
@dataclass
class FilteredAdjacency:
    """Sub-CSR over one part's vertices, keeping only partner-part neighbours.

    ``targets[offsets[i]:offsets[i + 1]]`` are the neighbours of
    ``vertices[i]`` that fall inside the partner part, in CSR row order (so
    draws index the same lists, in the same order, as the reference loop's
    ``nbrs[mask[nbrs]]``).
    """

    vertices: np.ndarray
    offsets: np.ndarray
    targets: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def nbytes(self) -> int:
        return int(self.vertices.nbytes + self.offsets.nbytes + self.targets.nbytes)


def build_filtered_adjacency(graph: "CSRGraph", part_vertices: np.ndarray,
                             partner_mask: np.ndarray) -> FilteredAdjacency:
    """Build the filtered sub-CSR for one (part, partner-part) direction.

    Fully vectorised: gathers the concatenated CSR rows of ``part_vertices``
    and keeps the entries selected by ``partner_mask`` (a boolean mask over
    the whole vertex set), preserving within-row order.
    """
    vertices = np.asarray(part_vertices, dtype=np.int64)
    offsets = np.zeros(vertices.shape[0] + 1, dtype=np.int64)
    xadj, adj = graph.xadj, graph.adj
    deg = xadj[vertices + 1] - xadj[vertices]
    total = int(deg.sum())
    if total == 0:
        return FilteredAdjacency(vertices=vertices, offsets=offsets,
                                 targets=np.zeros(0, dtype=np.int64))
    # Positions of every neighbour entry of the part inside ``adj``:
    # row start repeated per entry, plus the entry's offset within its row.
    row_starts = np.repeat(xadj[vertices], deg)
    within_row = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(deg) - deg, deg)
    nbrs = adj[row_starts + within_row]
    keep = partner_mask[nbrs]
    row_ids = np.repeat(np.arange(vertices.shape[0], dtype=np.int64), deg)
    fcounts = np.bincount(row_ids[keep], minlength=vertices.shape[0])
    np.cumsum(fcounts, out=offsets[1:])
    return FilteredAdjacency(vertices=vertices, offsets=offsets, targets=nbrs[keep])


class FilteredAdjacencyCache:
    """Per-``(from_part, to_part)`` filtered sub-CSRs, built once and reused.

    Keyed like :meth:`~repro.graph.partition.VertexPartition.global_to_local`:
    the cache belongs to one (graph, partition) pair, so every rotation of the
    large-graph engine reuses the same filtered neighbour lists instead of
    re-masking the adjacency on every pool build.

    Thread-safe: the pipelined large-graph engine builds pools on a producer
    thread while on-demand ``acquire`` misses may build on the consumer, so
    lookup-or-build runs under a lock (entries are immutable once built and a
    one-time build per direction is cheap enough to serialise).
    """

    def __init__(self, graph: "CSRGraph", partition: "VertexPartition"):
        self.graph = graph
        self.partition = partition
        self._entries: dict[tuple[int, int], FilteredAdjacency] = {}
        self._masks: dict[int, np.ndarray] = {}
        self._lock = threading.RLock()
        self.builds = 0
        self.hits = 0

    def mask(self, part: int) -> np.ndarray:
        with self._lock:
            mask = self._masks.get(part)
            if mask is None:
                mask = self.partition.mask(part)
                self._masks[part] = mask
            return mask

    def get(self, from_part: int, to_part: int) -> FilteredAdjacency:
        key = (from_part, to_part)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.builds += 1
                entry = build_filtered_adjacency(
                    self.graph, self.partition.parts[from_part], self.mask(to_part))
                self._entries[key] = entry
            else:
                self.hits += 1
            return entry

    def nbytes(self) -> int:
        with self._lock:
            return sum(entry.nbytes() for entry in self._entries.values())

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries), "builds": self.builds,
                    "hits": self.hits, "nbytes": self.nbytes()}


# --------------------------------------------------------------------------- #
# Backend protocol + implementations
# --------------------------------------------------------------------------- #
@runtime_checkable
class SamplerBackend(Protocol):
    """One part-pair positive-sampling engine.

    Implementations draw, for every vertex of ``part_vertices`` with at least
    one neighbour inside the partner part, exactly ``count_per_vertex``
    neighbours from that filtered list (with replacement); other vertices
    contribute no pairs — the paper's "almost equivalent to B×K epochs"
    caveat.  ``filtered``, when given, is a prebuilt :class:`FilteredAdjacency`
    for exactly ``(part_vertices, partner_mask)``.
    """

    name: str
    #: Whether the backend reads the ``filtered`` sub-CSR.  Callers that own
    #: a :class:`FilteredAdjacencyCache` (the SamplePoolManager) skip the
    #: build entirely for backends that declare ``False``.
    uses_filtered_adjacency: bool

    def sample_pairs(self, graph: "CSRGraph", part_vertices: np.ndarray,
                     partner_mask: np.ndarray, count_per_vertex: int,
                     rng: np.random.Generator, *,
                     filtered: FilteredAdjacency | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
        ...  # pragma: no cover - protocol


class ReferenceSamplerBackend:
    """Per-vertex loop over CSR rows — the semantic oracle.

    Deliberately ignores ``filtered`` and recomputes each vertex's
    partner-part neighbour list from the graph, so it stays an independent
    check on the vectorized path.
    """

    name = "reference"
    uses_filtered_adjacency = False

    def sample_pairs(self, graph: "CSRGraph", part_vertices: np.ndarray,
                     partner_mask: np.ndarray, count_per_vertex: int,
                     rng: np.random.Generator, *,
                     filtered: FilteredAdjacency | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
        del filtered  # the oracle always walks the graph itself
        srcs: list[np.ndarray] = []
        dsts: list[np.ndarray] = []
        B = int(count_per_vertex)
        for v in np.asarray(part_vertices, dtype=np.int64):
            nbrs = graph.neighbors(int(v))
            if nbrs.shape[0] == 0:
                continue
            valid = nbrs[partner_mask[nbrs]]
            if valid.shape[0] == 0:
                continue
            picks = valid[pick_indices(rng.random(B), valid.shape[0])]
            srcs.append(np.full(B, v, dtype=np.int64))
            dsts.append(picks)
        if not srcs:
            return _empty_pairs()
        return np.concatenate(srcs), np.concatenate(dsts)


class VectorizedSamplerBackend:
    """Whole-part batched sampling over the filtered sub-CSR (default).

    One ``rng.random((n_eligible, B))`` draw replaces the per-vertex loop;
    when the caller supplies a cached :class:`FilteredAdjacency` (the
    :class:`~repro.large.sample_pool.SamplePoolManager` does), repeated
    rotations skip the adjacency filtering entirely.
    """

    name = "vectorized"
    uses_filtered_adjacency = True

    def sample_pairs(self, graph: "CSRGraph", part_vertices: np.ndarray,
                     partner_mask: np.ndarray, count_per_vertex: int,
                     rng: np.random.Generator, *,
                     filtered: FilteredAdjacency | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
        if filtered is None:
            filtered = build_filtered_adjacency(graph, part_vertices, partner_mask)
        counts = filtered.counts
        eligible = np.flatnonzero(counts > 0)
        B = int(count_per_vertex)
        if eligible.shape[0] == 0 or B == 0:
            return _empty_pairs()
        ecounts = counts[eligible][:, None]
        idx = pick_indices(rng.random((eligible.shape[0], B)), ecounts)
        dst = filtered.targets[filtered.offsets[eligible][:, None] + idx].ravel()
        src = np.repeat(filtered.vertices[eligible], B)
        return src, dst


class DegreeBiasedSamplerBackend:
    """GraphVite-style ``deg^0.75`` positive-neighbour weighting.

    For every eligible vertex the partner-part neighbour is drawn with
    probability proportional to ``deg(neighbour)^power`` (global degree),
    instead of uniformly — the word2vec/GraphVite noise exponent applied to
    the *positive* pool, for hub-emphasis ablations.  Randomness is consumed
    exactly like the uniform backends (one row of ``B`` float64 uniforms per
    eligible vertex); each uniform is mapped through the row's cumulative
    weight profile with a single batched ``searchsorted``.
    """

    name = "degree_biased"
    uses_filtered_adjacency = True

    def __init__(self, power: float = 0.75):
        self.power = float(power)

    def sample_pairs(self, graph: "CSRGraph", part_vertices: np.ndarray,
                     partner_mask: np.ndarray, count_per_vertex: int,
                     rng: np.random.Generator, *,
                     filtered: FilteredAdjacency | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
        if filtered is None:
            filtered = build_filtered_adjacency(graph, part_vertices, partner_mask)
        counts = filtered.counts
        eligible = np.flatnonzero(counts > 0)
        B = int(count_per_vertex)
        if eligible.shape[0] == 0 or B == 0:
            return _empty_pairs()
        targets = filtered.targets
        deg = (graph.xadj[targets + 1] - graph.xadj[targets]).astype(np.float64)
        # cumw[j] = total weight of targets[:j]; one prepended zero makes the
        # per-row slice [cumw[start], cumw[end]) addressable without branches.
        cumw = np.concatenate(([0.0], np.cumsum(deg ** self.power)))
        starts = filtered.offsets[eligible]
        lo = cumw[starts][:, None]
        span = cumw[starts + counts[eligible]][:, None] - lo
        u = rng.random((eligible.shape[0], B))
        # Row-relative weighted pick: position of lo + u*span inside the global
        # cumulative profile, clipped to the row in case of float round-up.
        idx = np.searchsorted(cumw[1:], lo + u * span, side="right")
        idx = np.minimum(np.maximum(idx, starts[:, None]),
                         (starts + counts[eligible] - 1)[:, None])
        dst = targets[idx].ravel()
        src = np.repeat(filtered.vertices[eligible], B)
        return src, dst


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
#: The sampler backend used when nothing selects one explicitly.
DEFAULT_SAMPLER_BACKEND = "vectorized"

SAMPLER_BACKENDS: Registry[SamplerBackend] = Registry(
    "sampler backend",
    {"reference": ReferenceSamplerBackend, "vectorized": VectorizedSamplerBackend,
     "degree_biased": DegreeBiasedSamplerBackend},
    default=DEFAULT_SAMPLER_BACKEND)

UnknownSamplerBackendError = UnknownNameError
register_sampler_backend = SAMPLER_BACKENDS.register
#: Resolve a name (cached singleton per name), ``None`` (the default) or an
#: object already implementing the protocol (returned as-is).
get_sampler_backend = SAMPLER_BACKENDS.get
available_sampler_backends = SAMPLER_BACKENDS.names
