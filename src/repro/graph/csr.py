"""Compressed Sparse Row (CSR) graph data structure.

This module implements the graph substrate used throughout the GOSH
reproduction.  The paper (Section 3.2.1) stores all graphs in CSR form:

* ``xadj`` — an array of length ``|V| + 1``; the neighbours of vertex ``i``
  live in ``adj[xadj[i]:xadj[i + 1]]``.
* ``adj``  — the concatenated adjacency lists.

All heavy operations (degree computation, symmetrisation, subgraph
extraction, relabelling) are vectorised NumPy so that graphs with millions of
edges remain practical in pure Python.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["CSRGraph", "coo_to_csr", "csr_from_pair_keys", "pack_keys", "validate_csr"]

#: Packed sort keys are non-negative int64, so every key must stay below this.
_KEY_SPAN = 1 << 63


def pack_keys(hi: np.ndarray, lo: np.ndarray, hi_bound: int, lo_bound: int) -> np.ndarray:
    """Pack pairs into int64 sort keys ``hi * lo_bound + lo``.

    For ``0 <= hi < hi_bound`` and ``0 <= lo < lo_bound`` every pair gets its
    own key and keys order like the pairs do (by ``hi``, then ``lo``), so one
    plain ``np.sort`` of the keys orders the pairs — with no index sort, no
    multi-key sort and no tie-breaking to keep stable — and
    ``divmod(key, lo_bound)`` reads each pair back.  The element ranges are
    the caller's to guarantee.

    Raises ``ValueError`` when ``hi_bound * lo_bound > 2**63`` — the keys
    would wrap int64 — before any key is computed.  Vertex-pair keys
    (``hi_bound == lo_bound == n``) therefore allow at most 3,037,000,499
    vertices; position keys ``(id, position)`` allow, for instance, ids below
    2**31 with up to 2**32 positions.
    """
    if int(hi_bound) * int(lo_bound) > _KEY_SPAN:
        raise ValueError(
            f"packed int64 sort keys need hi_bound * lo_bound <= 2**63, got "
            f"{int(hi_bound):,} x {int(lo_bound):,} (vertex-pair keys allow at most "
            f"3,037,000,499 vertices)"
        )
    return np.asarray(hi, dtype=np.int64) * np.int64(lo_bound) + lo


def _check_endpoints(n_vertices: int, src: np.ndarray, dst: np.ndarray) -> None:
    if src.shape != dst.shape:
        raise ValueError(f"src and dst must have equal length, got {src.shape} vs {dst.shape}")
    if src.size:
        lo = min(src.min(), dst.min())
        hi = max(src.max(), dst.max())
        if lo < 0 or hi >= n_vertices:
            raise ValueError(
                f"edge endpoints must lie in [0, {n_vertices}), got range [{lo}, {hi}]"
            )


def _xadj(n_vertices: int, rows: np.ndarray) -> np.ndarray:
    """Row offsets for arcs whose (grouped) source rows are ``rows``."""
    xadj = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_vertices), out=xadj[1:])
    return xadj


def csr_from_pair_keys(n_vertices: int, keys: np.ndarray, *,
                       dedup: bool) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(xadj, adj)`` from unsorted ``pack_keys(src, dst, n, n)`` keys.

    One ``np.sort`` orders the arcs by source, then destination — every
    neighbour list comes out sorted — and ``dedup`` drops repeated keys
    straight off the sorted array.
    """
    keys = np.sort(keys)
    if dedup and keys.size:
        first = np.empty(keys.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
    src = keys // n_vertices
    return _xadj(n_vertices, src), keys - src * n_vertices


def coo_to_csr(
    n_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    sort_neighbors: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Convert a COO edge list into CSR ``(xadj, adj)`` arrays.

    One ``np.sort`` of packed int64 keys (:func:`pack_keys`) does the
    ordering: ``src * n + dst`` when neighbour lists are sorted,
    ``src * m + position`` when each row keeps the input order of its arcs
    (the order a stable sort by ``src`` gives).  Duplicate arcs are kept.

    Parameters
    ----------
    n_vertices:
        Number of vertices; all entries of ``src``/``dst`` must lie in
        ``[0, n_vertices)``.
    src, dst:
        Endpoint arrays of equal length.
    sort_neighbors:
        When True the adjacency list of every vertex is sorted, which gives
        deterministic iteration order and enables binary-search membership
        tests.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    _check_endpoints(n_vertices, src, dst)
    if sort_neighbors:
        return csr_from_pair_keys(n_vertices, pack_keys(src, dst, n_vertices, n_vertices),
                                  dedup=False)
    m = max(src.shape[0], 1)
    keys = np.sort(pack_keys(src, np.arange(src.shape[0]), n_vertices, m))
    return _xadj(n_vertices, src), dst[keys % m]


def validate_csr(xadj: np.ndarray, adj: np.ndarray, n_vertices: int) -> None:
    """Raise ``ValueError`` if ``(xadj, adj)`` is not a well-formed CSR pair."""
    if xadj.ndim != 1 or adj.ndim != 1:
        raise ValueError("xadj and adj must be one-dimensional")
    if xadj.shape[0] != n_vertices + 1:
        raise ValueError(f"xadj must have length |V|+1 = {n_vertices + 1}, got {xadj.shape[0]}")
    if xadj[0] != 0:
        raise ValueError("xadj[0] must be 0")
    if xadj[-1] != adj.shape[0]:
        raise ValueError(f"xadj[-1] ({xadj[-1]}) must equal len(adj) ({adj.shape[0]})")
    if np.any(np.diff(xadj) < 0):
        raise ValueError("xadj must be non-decreasing")
    if adj.size and (adj.min() < 0 or adj.max() >= n_vertices):
        raise ValueError("adj entries must lie in [0, |V|)")


@dataclass
class CSRGraph:
    """A directed graph in CSR form.

    Undirected graphs are stored symmetrically (both ``(u, v)`` and
    ``(v, u)`` present); :meth:`from_edges` with ``undirected=True`` takes
    care of that.  ``num_edges`` therefore counts *directed* arcs; for an
    undirected graph it is twice the number of undirected edges.
    """

    xadj: np.ndarray
    adj: np.ndarray
    num_vertices: int
    undirected: bool = True
    name: str = "graph"
    # Cached degree array (out-degrees); built lazily.
    _degrees: np.ndarray | None = field(default=None, repr=False, compare=False)
    # Cached content hash; built lazily by fingerprint().
    _fingerprint: str | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        n_vertices: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        *,
        undirected: bool = True,
        dedup: bool = True,
        drop_self_loops: bool = True,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build a graph from an edge list.

        Parameters
        ----------
        edges:
            Either an ``(m, 2)`` integer array or an iterable of pairs.
        undirected:
            Symmetrise the edge list (store both directions of every edge).
        dedup:
            Remove duplicate arcs.
        drop_self_loops:
            Remove ``(v, v)`` arcs, which carry no information for embedding.

        The arcs are packed into ``src * n + dst`` keys (:func:`pack_keys`,
        which raises ``ValueError`` above 3,037,000,499 vertices) and sorted
        once; de-duplication and the CSR arrays come straight off the sorted
        keys, and every neighbour list is sorted.
        """
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"edges must be an (m, 2) array, got shape {arr.shape}")
        src, dst = arr[:, 0], arr[:, 1]
        if drop_self_loops:
            keep = src != dst
            src, dst = src[keep], dst[keep]
        _check_endpoints(n_vertices, src, dst)
        # Packing checks the key range before anything |V|-sized is allocated.
        keys = pack_keys(src, dst, n_vertices, n_vertices)
        if undirected:
            keys = np.concatenate([keys, pack_keys(dst, src, n_vertices, n_vertices)])
        xadj, adj = csr_from_pair_keys(n_vertices, keys, dedup=dedup)
        return cls(xadj=xadj, adj=adj, num_vertices=n_vertices, undirected=undirected, name=name)

    @classmethod
    def from_csr_arrays(
        cls,
        xadj: np.ndarray,
        adj: np.ndarray,
        *,
        undirected: bool = True,
        name: str = "graph",
        validate: bool = True,
    ) -> "CSRGraph":
        """Wrap existing CSR arrays (no copy)."""
        xadj = np.asarray(xadj, dtype=np.int64)
        adj = np.asarray(adj, dtype=np.int64)
        n = xadj.shape[0] - 1
        if validate:
            validate_csr(xadj, adj, n)
        return cls(xadj=xadj, adj=adj, num_vertices=n, undirected=undirected, name=name)

    @classmethod
    def empty(cls, n_vertices: int, *, name: str = "empty") -> "CSRGraph":
        """A graph with ``n_vertices`` vertices and no edges."""
        return cls(
            xadj=np.zeros(n_vertices + 1, dtype=np.int64),
            adj=np.zeros(0, dtype=np.int64),
            num_vertices=n_vertices,
            name=name,
        )

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of directed arcs stored (2x undirected edge count)."""
        return int(self.adj.shape[0])

    @property
    def num_undirected_edges(self) -> int:
        """Number of undirected edges if the graph is symmetric."""
        return self.num_edges // 2 if self.undirected else self.num_edges

    @property
    def density(self) -> float:
        """Average out-degree |E| / |V| — the paper's density column (Table 2)."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_undirected_edges / self.num_vertices

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (== total degree for undirected graphs)."""
        if self._degrees is None:
            self._degrees = np.diff(self.xadj)
        return self._degrees

    def degree(self, v: int) -> int:
        return int(self.xadj[v + 1] - self.xadj[v])

    def neighbors(self, v: int) -> np.ndarray:
        """View of the adjacency list of ``v`` (paper's Γ(v))."""
        return self.adj[self.xadj[v]: self.xadj[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search (neighbour lists are sorted)."""
        row = self.neighbors(u)
        idx = np.searchsorted(row, v)
        return bool(idx < row.shape[0] and row[idx] == v)

    def edge_array(self) -> np.ndarray:
        """Return all arcs as an ``(m, 2)`` array of (src, dst)."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees)
        return np.column_stack([src, self.adj])

    def undirected_edge_array(self) -> np.ndarray:
        """Return each undirected edge once as ``(u, v)`` with ``u < v``."""
        arcs = self.edge_array()
        mask = arcs[:, 0] < arcs[:, 1]
        return arcs[mask]

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def symmetrized(self) -> "CSRGraph":
        """Return the undirected version of this graph."""
        if self.undirected:
            return self
        arcs = self.edge_array()
        return CSRGraph.from_edges(self.num_vertices, arcs, undirected=True, name=self.name)

    def subgraph(self, vertices: Sequence[int] | np.ndarray) -> tuple["CSRGraph", np.ndarray]:
        """Induced subgraph over ``vertices``.

        Returns the subgraph (with vertices relabelled ``0..k-1`` in the order
        given) and the original vertex ids of the new labels.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        lookup = np.full(self.num_vertices, -1, dtype=np.int64)
        lookup[vertices] = np.arange(vertices.shape[0], dtype=np.int64)
        arcs = self.edge_array()
        new_src = lookup[arcs[:, 0]]
        new_dst = lookup[arcs[:, 1]]
        keep = (new_src >= 0) & (new_dst >= 0)
        sub = CSRGraph.from_edges(
            vertices.shape[0],
            np.column_stack([new_src[keep], new_dst[keep]]),
            undirected=self.undirected,
            dedup=True,
            name=f"{self.name}_sub",
        )
        return sub, vertices

    def remove_isolated_vertices(self) -> tuple["CSRGraph", np.ndarray]:
        """Drop degree-0 vertices (used by the link-prediction split).

        Returns the compacted graph and the array mapping new ids to old ids.
        """
        keep = np.flatnonzero(self.degrees > 0)
        return self.subgraph(keep)

    def relabel(self, permutation: np.ndarray) -> "CSRGraph":
        """Apply a vertex permutation: new id ``permutation[v]`` for old ``v``."""
        permutation = np.asarray(permutation, dtype=np.int64)
        if permutation.shape[0] != self.num_vertices:
            raise ValueError("permutation must have one entry per vertex")
        arcs = self.edge_array()
        new_edges = np.column_stack([permutation[arcs[:, 0]], permutation[arcs[:, 1]]])
        return CSRGraph.from_edges(
            self.num_vertices, new_edges, undirected=self.undirected, name=self.name
        )

    # ------------------------------------------------------------------ #
    # Memory model hooks (used by the simulated GPU)
    # ------------------------------------------------------------------ #
    def nbytes(self) -> int:
        """Bytes needed to store the CSR arrays — the paper's (|V|+1)+|E| entries."""
        return int(self.xadj.nbytes + self.adj.nbytes)

    def fingerprint(self) -> str:
        """A content hash of the CSR arrays, stable across equal graphs.

        Used as a cache key (by the :class:`repro.api` hierarchy cache and as
        the :class:`repro.store` lineage key, so it runs on every store
        save/load and every serving request): two graphs with identical
        structure share a fingerprint regardless of their ``name``.  Computed
        once and memoised on the instance — hashing millions of CSR entries
        per request would dominate small queries — which is safe because CSR
        arrays are treated as immutable throughout the codebase.
        """
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(np.int64(self.num_vertices).tobytes())
            h.update(np.ascontiguousarray(self.xadj).tobytes())
            h.update(np.ascontiguousarray(self.adj).tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------ #
    # Dunder / misc
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[int]:
        return iter(range(self.num_vertices))

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_undirected_edges}, density={self.density:.2f})"
        )

    def copy(self) -> "CSRGraph":
        # Content is equal by construction, so the memoised fingerprint
        # carries over — a copy must not re-hash the arrays.
        return CSRGraph(
            xadj=self.xadj.copy(),
            adj=self.adj.copy(),
            num_vertices=self.num_vertices,
            undirected=self.undirected,
            name=self.name,
            _fingerprint=self._fingerprint,
        )
