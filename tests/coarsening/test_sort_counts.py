"""Sorts per coarsening level and per scatter plan, counted.

A work-count invariant in place of a wall-clock floor: wrapping ``np.sort``,
``np.argsort``, ``np.lexsort`` and ``np.unique`` with counters shows exactly
how much sorting each step does.  One ``coarsen_graph`` level sorts its
un-doubled packed keys once, the parallel leader pick sorts nothing, and a
scatter plan is one ``np.sort``.  Going back to a doubled arc list, an
argsort, a lexsort or a sort-based ``np.unique`` fails these deterministically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coarsening.multi_edge_collapse import coarsen_graph
from repro.coarsening.parallel_collapse import parallel_collapse_once
from repro.gpu.backends.vectorized import plan_scatter
from repro.graph import CSRGraph

SORTS = ("sort", "argsort", "lexsort", "unique")


@pytest.fixture
def sort_log(monkeypatch):
    """``{name: [input sizes]}`` for every counted numpy sort call."""
    log: dict[str, list[int]] = {name: [] for name in SORTS}
    for name in SORTS:
        real = getattr(np, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            log[_name].append(sum(np.size(x) for x in a) if _name == "lexsort" else np.size(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    return log


def _mapped_arcs(graph: CSRGraph, mapping: np.ndarray) -> int:
    """Arcs of ``graph`` whose endpoints land in different clusters."""
    src = np.repeat(mapping, graph.degrees)
    return int(np.count_nonzero(src != mapping[graph.adj]))


class TestCoarseningSorts:
    def test_one_level_is_one_sort_of_undoubled_keys(self, small_power_graph, sort_log):
        mapping, k = parallel_collapse_once(small_power_graph)
        assert sort_log == {name: [] for name in SORTS}
        coarse = coarsen_graph(small_power_graph, mapping, k)
        assert sort_log["argsort"] == sort_log["lexsort"] == sort_log["unique"] == []
        # The graph is symmetric, so its mapped arcs are too: no doubling.
        assert sort_log["sort"] == [_mapped_arcs(small_power_graph, mapping)]
        assert coarse.num_edges < sort_log["sort"][0]

    def test_directed_level_doubles_once(self, sort_log):
        g = CSRGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
                                undirected=False)
        sort_log["sort"].clear()
        mapping = np.array([0, 0, 1, 1, 2, 2])
        coarse = coarsen_graph(g, mapping, 3)
        assert sort_log["sort"] == [2 * _mapped_arcs(g, mapping)]
        assert coarse.adj.tolist() == [1, 2, 0, 2, 0, 1]

    def test_parallel_collapse_sorts_nothing(self, small_power_graph, sort_log):
        for hub_rule in (True, False):
            parallel_collapse_once(small_power_graph, hub_rule=hub_rule)
        assert sort_log == {name: [] for name in SORTS}


class TestScatterPlanSorts:
    def test_plan_is_one_sort(self, sort_log):
        rng = np.random.default_rng(0)
        # Hubs long enough to need tail buckets of several widths.
        idx = np.concatenate([rng.integers(0, 50, 400), np.full(40, 7), np.full(100, 3)])
        rng.shuffle(idx)
        plan = plan_scatter(idx)
        assert len(plan.tails) > 1
        assert sort_log == {"sort": [idx.size], "argsort": [], "lexsort": [], "unique": []}
