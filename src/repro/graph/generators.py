"""Synthetic graph generators.

The paper evaluates on SNAP / network-repository graphs (Table 2) that are
not redistributable here and, at up to 1.8 billion edges, are far beyond what
a pure-Python reproduction embeds in test time.  These generators produce scaled-down
synthetic *twins* with the structural properties that matter for GOSH:

* heavy-tailed degree distributions (hubs) — exercised by the hub-collision
  rule of MultiEdgeCollapse,
* community structure — what link prediction actually learns,
* controllable density — matching the |E|/|V| column of Table 2.

All generators are deterministic given a seed and vectorised.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph

__all__ = [
    "erdos_renyi",
    "barabasi_albert",
    "rmat",
    "stochastic_block_model",
    "watts_strogatz",
    "powerlaw_cluster",
    "social_community",
    "star",
    "ring",
    "complete",
    "grid_2d",
]


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def erdos_renyi(n: int, p: float | None = None, *, m: int | None = None,
                seed: int | np.random.Generator | None = 0, name: str = "erdos_renyi") -> CSRGraph:
    """G(n, p) or G(n, m) random graph.

    Exactly one of ``p`` (edge probability) or ``m`` (edge count) must be
    given.  For ``m`` the edges are sampled without replacement.
    """
    rng = _rng(seed)
    if (p is None) == (m is None):
        raise ValueError("exactly one of p or m must be provided")
    if m is None:
        expected = p * n * (n - 1) / 2.0
        m = int(rng.poisson(expected))
    m = min(m, n * (n - 1) // 2)
    # Sample edges by rejection on a 64-bit key to avoid materialising n^2 pairs.
    edges = np.zeros((0, 2), dtype=np.int64)
    seen: set[int] = set()
    need = m
    while need > 0:
        u = rng.integers(0, n, size=need * 2, dtype=np.int64)
        v = rng.integers(0, n, size=need * 2, dtype=np.int64)
        mask = u != v
        u, v = u[mask], v[mask]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = lo * np.int64(n) + hi
        fresh_u, fresh_v = [], []
        for a, b, k in zip(lo, hi, keys):
            if int(k) not in seen:
                seen.add(int(k))
                fresh_u.append(a)
                fresh_v.append(b)
                if len(seen) >= m:
                    break
        if fresh_u:
            edges = np.vstack([edges, np.column_stack([fresh_u, fresh_v])])
        need = m - len(seen)
        if n * (n - 1) // 2 <= len(seen):
            break
    return CSRGraph.from_edges(n, edges, undirected=True, name=name)


def barabasi_albert(n: int, m: int = 3, *, seed: int | np.random.Generator | None = 0,
                    name: str = "barabasi_albert") -> CSRGraph:
    """Preferential-attachment graph — heavy-tailed degree distribution.

    Each new vertex attaches to ``m`` existing vertices chosen proportionally
    to their degree (implemented with the repeated-endpoints trick).
    """
    rng = _rng(seed)
    if n < m + 1:
        raise ValueError(f"need n > m, got n={n}, m={m}")
    targets = list(range(m))
    repeated: list[int] = []
    edges: list[tuple[int, int]] = []
    for v in range(m, n):
        for t in targets:
            edges.append((v, t))
        repeated.extend(targets)
        repeated.extend([v] * m)
        # Choose m unique targets for the next vertex from the repeated list.
        targets = []
        chosen: set[int] = set()
        while len(targets) < m:
            x = repeated[int(rng.integers(0, len(repeated)))]
            if x not in chosen:
                chosen.add(x)
                targets.append(x)
    return CSRGraph.from_edges(n, np.asarray(edges, dtype=np.int64), undirected=True, name=name)


def rmat(scale: int, edge_factor: int = 16, *, a: float = 0.57, b: float = 0.19,
         c: float = 0.19, seed: int | np.random.Generator | None = 0,
         name: str = "rmat") -> CSRGraph:
    """Recursive-MATrix (Graph500-style) generator.

    Produces skewed, community-like graphs similar to social networks; this
    is the main "twin" generator for the paper's large web/social graphs.
    ``n = 2**scale`` vertices and approximately ``edge_factor * n`` edges.
    """
    rng = _rng(seed)
    n = 1 << scale
    m = edge_factor * n
    d = 1.0 - (a + b + c)
    if d < 0:
        raise ValueError("a + b + c must be <= 1")
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    # Vectorised bit-by-bit quadrant selection: at each recursion level the
    # edge falls into quadrant a (up-left), b (up-right), c (down-left) or
    # d (down-right); the row bit is set for c/d, the column bit for b/d.
    for _bit in range(scale):
        u = rng.random(m)
        row_bit = u >= (a + b)
        v = rng.random(m)
        col_thresh = np.where(row_bit, c / max(c + d, 1e-12), a / max(a + b, 1e-12))
        col_bit = v >= col_thresh
        src = (src << 1) | row_bit.astype(np.int64)
        dst = (dst << 1) | col_bit.astype(np.int64)
    # Permute vertex ids so that hubs are not clustered at low ids.
    perm = rng.permutation(n)
    src, dst = perm[src], perm[dst]
    return CSRGraph.from_edges(n, np.column_stack([src, dst]), undirected=True, name=name)


def stochastic_block_model(block_sizes: list[int], p_in: float, p_out: float, *,
                           seed: int | np.random.Generator | None = 0,
                           name: str = "sbm") -> CSRGraph:
    """Stochastic block model — explicit community structure.

    Useful for link-prediction sanity tests: embeddings must separate
    communities for AUCROC to be high.
    """
    rng = _rng(seed)
    n = int(sum(block_sizes))
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    edges: list[np.ndarray] = []
    offsets = np.concatenate([[0], np.cumsum(block_sizes)])
    for i, si in enumerate(block_sizes):
        for j in range(i, len(block_sizes)):
            sj = block_sizes[j]
            p = p_in if i == j else p_out
            if p <= 0:
                continue
            if i == j:
                expected = p * si * (si - 1) / 2.0
            else:
                expected = p * si * sj
            cnt = int(rng.poisson(expected))
            if cnt == 0:
                continue
            u = rng.integers(0, si, size=cnt) + offsets[i]
            v = rng.integers(0, sj, size=cnt) + offsets[j]
            mask = u != v
            edges.append(np.column_stack([u[mask], v[mask]]))
    if edges:
        all_edges = np.vstack(edges)
    else:
        all_edges = np.zeros((0, 2), dtype=np.int64)
    g = CSRGraph.from_edges(n, all_edges, undirected=True, name=name)
    return g


def watts_strogatz(n: int, k: int = 4, beta: float = 0.1, *,
                   seed: int | np.random.Generator | None = 0,
                   name: str = "watts_strogatz") -> CSRGraph:
    """Small-world ring-lattice rewiring model."""
    rng = _rng(seed)
    if k % 2 != 0:
        raise ValueError("k must be even")
    base_src = np.repeat(np.arange(n, dtype=np.int64), k // 2)
    shifts = np.tile(np.arange(1, k // 2 + 1, dtype=np.int64), n)
    base_dst = (base_src + shifts) % n
    rewire = rng.random(base_src.shape[0]) < beta
    base_dst = np.where(rewire, rng.integers(0, n, size=base_src.shape[0]), base_dst)
    mask = base_src != base_dst
    return CSRGraph.from_edges(n, np.column_stack([base_src[mask], base_dst[mask]]),
                               undirected=True, name=name)


def powerlaw_cluster(n: int, m: int = 3, p_triangle: float = 0.3, *,
                     seed: int | np.random.Generator | None = 0,
                     name: str = "powerlaw_cluster") -> CSRGraph:
    """Holme–Kim power-law graph with tunable clustering.

    Combines preferential attachment with triangle closure; a good twin for
    social graphs where both skew and clustering matter.
    """
    rng = _rng(seed)
    if n < m + 1:
        raise ValueError("need n > m")
    repeated: list[int] = list(range(m))
    edges: list[tuple[int, int]] = []
    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    for v in range(m, n):
        added = 0
        last_target = None
        while added < m:
            if last_target is not None and rng.random() < p_triangle and adjacency[last_target]:
                candidates = list(adjacency[last_target])
                t = candidates[int(rng.integers(0, len(candidates)))]
            else:
                t = repeated[int(rng.integers(0, len(repeated)))]
            if t != v and t not in adjacency[v]:
                edges.append((v, t))
                adjacency[v].add(t)
                adjacency[t].add(v)
                repeated.append(t)
                repeated.append(v)
                last_target = t
                added += 1
    return CSRGraph.from_edges(n, np.asarray(edges, dtype=np.int64), undirected=True, name=name)


def social_community(n: int, *, intra_degree: int = 12, inter_fraction: float = 0.03,
                     hub_fraction: float = 0.005, hub_reach: float = 0.08,
                     community_scale: int = 40, rewire: float = 0.1,
                     seed: int | np.random.Generator | None = 0,
                     name: str = "social_community") -> CSRGraph:
    """Community-structured social graph with hubs — the main "twin" generator.

    Real social/web graphs combine three properties that matter for GOSH:
    dense local communities (what makes link prediction achievable at 95%+
    AUCROC), a heavy-tailed degree distribution with hub vertices (what the
    hub-collision rule of MultiEdgeCollapse is designed around), and a small
    fraction of long-range edges.  The generator builds exactly that:

    * community sizes drawn from a Pareto distribution (min 20 vertices,
      scale ``community_scale``),
    * each community wired as a small-world ring lattice with ``intra_degree``
      neighbours and ``rewire`` rewiring probability,
    * ``inter_fraction`` of the intra-community edge count added as uniformly
      random cross-community edges,
    * ``hub_fraction`` of the vertices promoted to hubs, each connected to a
      random ``hub_reach`` fraction of the graph drawn from a *contiguous
      window* of communities — hubs in real networks are followed by a few
      related communities rather than uniformly random vertices, and that
      locality is what lets hub-centred coarsening clusters stay meaningful.
    """
    rng = _rng(seed)
    if n < 30:
        raise ValueError("social_community needs at least 30 vertices")
    # Pareto-distributed community sizes covering all n vertices.
    sizes: list[int] = []
    remaining = n
    while remaining > 0:
        size = int(min(remaining, max(20, rng.pareto(1.5) * community_scale + 20)))
        sizes.append(size)
        remaining -= size
    edge_blocks: list[np.ndarray] = []
    offset = 0
    for size in sizes:
        k = min(intra_degree, max(2, (size - 1) // 2 * 2))
        if k % 2:
            k -= 1
        sub = watts_strogatz(size, k=max(2, k), beta=rewire,
                             seed=int(rng.integers(0, 1 << 30)))
        edge_blocks.append(sub.undirected_edge_array() + offset)
        offset += size
    edges = np.vstack(edge_blocks)
    # Cross-community noise edges.
    m_inter = int(inter_fraction * edges.shape[0])
    if m_inter > 0:
        u = rng.integers(0, n, size=m_inter)
        v = rng.integers(0, n, size=m_inter)
        edges = np.vstack([edges, np.column_stack([u, v])])
    # Hub vertices spanning a window of neighbouring communities.
    num_hubs = max(1, int(hub_fraction * n))
    hubs = rng.choice(n, size=num_hubs, replace=False)
    hub_blocks: list[np.ndarray] = []
    for hub in hubs:
        reach = max(8, int(hub_reach * n))
        start = int(rng.integers(0, max(1, n - reach)))
        window = np.arange(start, min(n, start + reach))
        targets = rng.choice(window, size=min(reach, window.shape[0]), replace=False)
        hub_blocks.append(np.column_stack([np.full(targets.shape[0], hub), targets]))
    if hub_blocks:
        edges = np.vstack([edges] + hub_blocks)
    return CSRGraph.from_edges(n, edges, undirected=True, name=name)


def star(n: int, *, name: str = "star") -> CSRGraph:
    """Star graph — a single hub connected to n-1 leaves."""
    leaves = np.arange(1, n, dtype=np.int64)
    edges = np.column_stack([np.zeros(n - 1, dtype=np.int64), leaves])
    return CSRGraph.from_edges(n, edges, undirected=True, name=name)


def ring(n: int, *, name: str = "ring") -> CSRGraph:
    """Cycle graph."""
    u = np.arange(n, dtype=np.int64)
    v = (u + 1) % n
    return CSRGraph.from_edges(n, np.column_stack([u, v]), undirected=True, name=name)


def complete(n: int, *, name: str = "complete") -> CSRGraph:
    """Complete graph K_n."""
    u, v = np.triu_indices(n, k=1)
    return CSRGraph.from_edges(n, np.column_stack([u, v]).astype(np.int64),
                               undirected=True, name=name)


def grid_2d(rows: int, cols: int, *, name: str = "grid") -> CSRGraph:
    """2D lattice — low-degree, highly regular (worst case for coarsening skew)."""
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    down = np.column_stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    return CSRGraph.from_edges(rows * cols, np.vstack([right, down]), undirected=True, name=name)
