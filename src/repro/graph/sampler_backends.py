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
  through a :class:`FilteredAdjacencyCache`.  Default; perfbench measures
  its pool production as ``large.pool_produce_s``.
* ``"degree_biased"`` — GraphVite-style positive weighting: a vertex's
  partner-part neighbours are drawn proportionally to ``deg^0.75`` instead
  of uniformly, concentrating positive updates on hub neighbours.  Consumes
  randomness exactly like the other backends (one row of B uniforms per
  eligible vertex) but maps each uniform through the row's cumulative
  weight profile, so it shares the batched machinery without sharing the
  uniform-draw semantics (no reference-parity claim).

**Source-major output.**  Every backend returns one direction as
``(rows, dst)``: ``rows`` are the local rows (positions in
``part_vertices``) of the *eligible* vertices — those with at least one
neighbour inside the partner part — strictly increasing, and ``dst`` holds
``len(rows) * count_per_vertex`` partner ids, each row's ``B`` draws
consecutive and in row order.  That is the layout of the paper's large-graph
kernel, one source vertex's ``B`` samples to one warp: the kernel gathers and
writes back each source row once, with no scatter plan for the source side.
:meth:`~repro.graph.samplers.PositiveSampler.sample_pairs_for_part` expands
``(np.repeat(part_vertices[rows], B), dst)`` for callers that want flat pairs.

**Exact parity.**  The uniform backends consume randomness identically: one
row of ``count_per_vertex`` float64 uniforms per eligible vertex, in row
order, mapped to a neighbour index with ``floor(u * count)``.  NumPy's
``Generator.random`` fills arrays sequentially from the bit stream, so the
reference loop's per-vertex ``rng.random(B)`` calls and the vectorized
backend's single ``rng.random((n_eligible, B))`` draw produce bit-identical
uniforms — the two backends therefore return *identical* ``(rows, dst)``
arrays from a shared seeded Generator.  ``degree_biased`` draws the same
uniforms and returns the same ``rows`` (eligibility does not depend on the
weights), but maps the uniforms to other neighbours.  Parity is pinned by
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
from .csr import pack_keys

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .csr import CSRGraph
    from .partition import VertexPartition

__all__ = [
    "FilteredAdjacency",
    "FilteredAdjacencyCache",
    "build_filtered_adjacency",
    "build_filtered_adjacencies",
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


def _empty_rows() -> tuple[np.ndarray, np.ndarray]:
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


def _gather_rows(graph: "CSRGraph", vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Degrees of ``vertices`` and their concatenated CSR rows, in row order."""
    xadj = graph.xadj
    deg = xadj[vertices + 1] - xadj[vertices]
    # Position of every entry inside ``adj``: its row's start plus its offset
    # within the row, i.e. a running index shifted per row.
    shift = np.repeat(xadj[vertices] - (np.cumsum(deg) - deg), deg)
    return deg, graph.adj[np.arange(shift.shape[0], dtype=np.int64) + shift]


def build_filtered_adjacency(graph: "CSRGraph", part_vertices: np.ndarray,
                             partner_mask: np.ndarray) -> FilteredAdjacency:
    """Build the filtered sub-CSR for one (part, partner-part) direction.

    Fully vectorised: gathers the concatenated CSR rows of ``part_vertices``
    and keeps the entries selected by ``partner_mask`` (a boolean mask over
    the whole vertex set), preserving within-row order.
    """
    vertices = np.asarray(part_vertices, dtype=np.int64)
    offsets = np.zeros(vertices.shape[0] + 1, dtype=np.int64)
    deg, nbrs = _gather_rows(graph, vertices)
    if nbrs.shape[0] == 0:
        return FilteredAdjacency(vertices=vertices, offsets=offsets,
                                 targets=np.zeros(0, dtype=np.int64))
    keep = partner_mask[nbrs]
    row_ids = np.repeat(np.arange(vertices.shape[0], dtype=np.int64), deg)
    fcounts = np.bincount(row_ids[keep], minlength=vertices.shape[0])
    np.cumsum(fcounts, out=offsets[1:])
    return FilteredAdjacency(vertices=vertices, offsets=offsets, targets=nbrs[keep])


def build_filtered_adjacencies(graph: "CSRGraph", part_vertices: np.ndarray,
                               part_of: np.ndarray, num_parts: int) -> list[FilteredAdjacency]:
    """Every partner part's filtered sub-CSR of one part, from one pass.

    Entry ``k`` equals ``build_filtered_adjacency(graph, part_vertices,
    part_of == k)`` byte for byte, but the part's rows are gathered once for
    all ``num_parts`` partners instead of once per partner.  One ``np.sort``
    of the packed keys ``(part_of[nbr], position)`` groups the arcs by
    partner part and keeps each group in row order, within-row order
    included; one ``bincount`` of ``(partner, row)`` gives every group's row
    counts.
    """
    vertices = np.asarray(part_vertices, dtype=np.int64)
    n = vertices.shape[0]
    deg, nbrs = _gather_rows(graph, vertices)
    total = nbrs.shape[0]
    partner = np.asarray(part_of, dtype=np.int64)[nbrs]
    sizes = np.bincount(partner, minlength=num_parts)
    keys = np.sort(pack_keys(partner, np.arange(total), num_parts, max(total, 1)))
    # The sorted keys run partner by partner, ``sizes[k]`` of each: subtract
    # each run's ``k * total`` to read the positions back without a division.
    keys -= np.repeat(np.arange(num_parts, dtype=np.int64) * total, sizes)
    targets = nbrs[keys]
    bounds = np.zeros(num_parts + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    row_ids = np.repeat(np.arange(n, dtype=np.int64), deg)
    counts = np.bincount(partner * n + row_ids, minlength=num_parts * n)
    offsets = np.zeros((num_parts, n + 1), dtype=np.int64)
    np.cumsum(counts.reshape(num_parts, n), axis=1, out=offsets[:, 1:])
    return [FilteredAdjacency(vertices=vertices, offsets=offsets[k],
                              targets=targets[bounds[k]:bounds[k + 1]])
            for k in range(num_parts)]


class FilteredAdjacencyCache:
    """Filtered sub-CSRs per ``(from_part, to_part)``, built once and reused.

    Keyed like :meth:`~repro.graph.partition.VertexPartition.global_to_local`:
    the cache belongs to one (graph, partition) pair, so every rotation of the
    large-graph engine reuses the same filtered neighbour lists instead of
    re-masking the adjacency on every pool build.

    The first ``get`` for a ``from_part`` runs :func:`build_filtered_adjacencies`
    — one gather of that part's arcs — and caches the sub-CSRs for *every*
    partner part at once, so a level with ``K`` parts reads its arcs ``K``
    times, not ``K**2``.  ``builds`` counts those per-part passes (at most
    ``K`` per cache), ``entries`` the parts cached (each holding ``K``
    sub-CSRs), and ``hits`` the ``get`` calls served without a pass.

    Thread-safe: the large-graph engine builds pools on its producer thread
    while the consumer may read :meth:`stats` (via
    ``SamplePoolManager.stats``), so lookup-or-build runs under a lock
    (entries are immutable once built and a one-time pass per part is cheap
    enough to serialise).
    """

    def __init__(self, graph: "CSRGraph", partition: "VertexPartition"):
        self.graph = graph
        self.partition = partition
        self._entries: dict[int, list[FilteredAdjacency]] = {}
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
        with self._lock:
            entries = self._entries.get(from_part)
            if entries is None:
                self.builds += 1
                entries = build_filtered_adjacencies(
                    self.graph, self.partition.parts[from_part],
                    self.partition.part_of, self.partition.num_parts)
                self._entries[from_part] = entries
            else:
                self.hits += 1
            return entries[to_part]

    def nbytes(self) -> int:
        with self._lock:
            # The K sub-CSRs of one part share its vertex array: count it once.
            return int(sum(entries[0].vertices.nbytes
                           + sum(e.offsets.nbytes + e.targets.nbytes for e in entries)
                           for entries in self._entries.values()))

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
    contribute no samples — the paper's "almost equivalent to B×K epochs"
    caveat.  ``filtered``, when given, is a prebuilt :class:`FilteredAdjacency`
    for exactly ``(part_vertices, partner_mask)``.

    The result is source-major ``(rows, dst)``: ``rows`` are the eligible
    vertices' positions in ``part_vertices``, strictly increasing, and
    ``dst`` their ``len(rows) * count_per_vertex`` draws, ``B`` per row in
    row order.
    """

    name: str
    #: Whether the backend reads the ``filtered`` sub-CSR.  Callers that own
    #: a :class:`FilteredAdjacencyCache` (the SamplePoolManager) skip the
    #: build entirely for backends that declare ``False``.
    uses_filtered_adjacency: bool

    def sample_rows(self, graph: "CSRGraph", part_vertices: np.ndarray,
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

    def sample_rows(self, graph: "CSRGraph", part_vertices: np.ndarray,
                    partner_mask: np.ndarray, count_per_vertex: int,
                    rng: np.random.Generator, *,
                    filtered: FilteredAdjacency | None = None,
                    ) -> tuple[np.ndarray, np.ndarray]:
        del filtered  # the oracle always walks the graph itself
        rows: list[int] = []
        dsts: list[np.ndarray] = []
        B = int(count_per_vertex)
        if B == 0:
            return _empty_rows()
        for row, v in enumerate(np.asarray(part_vertices, dtype=np.int64)):
            nbrs = graph.neighbors(int(v))
            valid = nbrs[partner_mask[nbrs]]
            if valid.shape[0] == 0:
                continue
            rows.append(row)
            dsts.append(valid[pick_indices(rng.random(B), valid.shape[0])])
        if not rows:
            return _empty_rows()
        return np.array(rows, dtype=np.int64), np.concatenate(dsts)


class VectorizedSamplerBackend:
    """Whole-part batched sampling over the filtered sub-CSR (default).

    One ``rng.random((n_eligible, B))`` draw replaces the per-vertex loop;
    when the caller supplies a cached :class:`FilteredAdjacency` (the
    :class:`~repro.large.sample_pool.SamplePoolManager` does), repeated
    rotations skip the adjacency filtering entirely.
    """

    name = "vectorized"
    uses_filtered_adjacency = True

    def sample_rows(self, graph: "CSRGraph", part_vertices: np.ndarray,
                    partner_mask: np.ndarray, count_per_vertex: int,
                    rng: np.random.Generator, *,
                    filtered: FilteredAdjacency | None = None,
                    ) -> tuple[np.ndarray, np.ndarray]:
        if filtered is None:
            filtered = build_filtered_adjacency(graph, part_vertices, partner_mask)
        counts = filtered.counts
        rows = np.flatnonzero(counts > 0)
        B = int(count_per_vertex)
        if rows.shape[0] == 0 or B == 0:
            return _empty_rows()
        idx = pick_indices(rng.random((rows.shape[0], B)), counts[rows][:, None])
        return rows, filtered.targets[filtered.offsets[rows][:, None] + idx].ravel()


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

    def sample_rows(self, graph: "CSRGraph", part_vertices: np.ndarray,
                    partner_mask: np.ndarray, count_per_vertex: int,
                    rng: np.random.Generator, *,
                    filtered: FilteredAdjacency | None = None,
                    ) -> tuple[np.ndarray, np.ndarray]:
        if filtered is None:
            filtered = build_filtered_adjacency(graph, part_vertices, partner_mask)
        counts = filtered.counts
        rows = np.flatnonzero(counts > 0)
        B = int(count_per_vertex)
        if rows.shape[0] == 0 or B == 0:
            return _empty_rows()
        targets = filtered.targets
        deg = (graph.xadj[targets + 1] - graph.xadj[targets]).astype(np.float64)
        # cumw[j] = total weight of targets[:j]; one prepended zero makes the
        # per-row slice [cumw[start], cumw[end]) addressable without branches.
        cumw = np.concatenate(([0.0], np.cumsum(deg ** self.power)))
        starts = filtered.offsets[rows]
        lo = cumw[starts][:, None]
        span = cumw[starts + counts[rows]][:, None] - lo
        u = rng.random((rows.shape[0], B))
        # Row-relative weighted pick: position of lo + u*span inside the global
        # cumulative profile, clipped to the row in case of float round-up.
        idx = np.searchsorted(cumw[1:], lo + u * span, side="right")
        idx = np.minimum(np.maximum(idx, starts[:, None]),
                         (starts + counts[rows] - 1)[:, None])
        return rows, targets[idx].ravel()


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
