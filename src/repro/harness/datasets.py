"""Dataset registry: scaled-down synthetic twins of the paper's Table 2 graphs.

Each entry pairs the paper's graph with a generator recipe that reproduces
its qualitative structure (degree skew, density, community structure) at a
size a laptop embeds in seconds.  The registry is what every
benchmark iterates over, so the mapping from paper graph -> twin is recorded
in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..graph.csr import CSRGraph
from ..graph import generators as gen

__all__ = ["DatasetSpec", "MEDIUM_DATASETS", "LARGE_DATASETS", "ALL_DATASETS",
           "load_dataset", "dataset_names", "paper_table2_rows"]


@dataclass(frozen=True)
class DatasetSpec:
    """One Table 2 row and the recipe for its synthetic twin."""

    name: str                      # paper graph name
    paper_vertices: int
    paper_edges: int
    paper_density: float
    scale: str                     # "medium" or "large"
    builder: Callable[[int], CSRGraph]
    description: str = ""

    def build(self, seed: int = 0) -> CSRGraph:
        graph = self.builder(seed)
        return CSRGraph(
            xadj=graph.xadj, adj=graph.adj, num_vertices=graph.num_vertices,
            undirected=graph.undirected, name=self.name,
        )


def _social_twin(name: str, n: int, intra_degree: int, *, hub_fraction: float = 0.005,
                 inter_fraction: float = 0.03, hub_reach: float = 0.08):
    """Build a twin factory: community-structured, hub-bearing social graph.

    ``intra_degree`` tracks the relative density of the paper's graph (dense
    graphs like com-orkut get a higher intra-community degree), ``n`` the
    relative |V| ordering while staying laptop-sized.
    """

    def build(seed: int) -> CSRGraph:
        return gen.social_community(
            n, intra_degree=intra_degree, inter_fraction=inter_fraction,
            hub_fraction=hub_fraction, hub_reach=hub_reach, seed=seed, name=name,
        )

    return build


# Medium-scale twins: ~1k–2k vertices, intra-community degree tracks the
# paper's density column (com-amazon 2.76 ... com-orkut 38.14).
_dblp_twin = _social_twin("com-dblp", 1000, 6)
_amazon_twin = _social_twin("com-amazon", 1000, 6, inter_fraction=0.02)
_youtube_twin = _social_twin("youtube", 1400, 8, hub_fraction=0.008)
_pokec_twin = _social_twin("soc-pokec", 1400, 18)
_wiki_twin = _social_twin("wiki-topcats", 1400, 16, hub_fraction=0.01)
_orkut_twin = _social_twin("com-orkut", 1600, 28)
_lj_twin = _social_twin("com-lj", 1600, 10)
_livejournal_twin = _social_twin("soc-LiveJournal", 1800, 14)

# Large-scale twins: bigger |V| so that, with the shrunken simulated-device
# memory used by the Table 7 / Figure 3 benches, the embedding matrix does
# not fit and the partitioned engine is exercised.
_hyperlink_twin = _social_twin("hyperlink2012", 3600, 14, hub_fraction=0.004)
_sinaweibo_twin = _social_twin("soc-sinaweibo", 4200, 6, hub_fraction=0.004)
_twitter_twin = _social_twin("twitter_rv", 3800, 24, hub_fraction=0.006)
_friendster_twin = _social_twin("com-friendster", 4800, 20, hub_fraction=0.004)


MEDIUM_DATASETS: list[DatasetSpec] = [
    DatasetSpec("com-dblp", 317_080, 1_049_866, 3.31, "medium", _dblp_twin,
                "co-authorship network; clustered, moderate skew"),
    DatasetSpec("com-amazon", 334_863, 925_872, 2.76, "medium", _amazon_twin,
                "co-purchase network; sparse, clustered"),
    DatasetSpec("youtube", 1_138_499, 4_945_382, 4.34, "medium", _youtube_twin,
                "social network; heavy-tailed degrees"),
    DatasetSpec("soc-pokec", 1_632_803, 30_622_564, 18.75, "medium", _pokec_twin,
                "dense social network"),
    DatasetSpec("wiki-topcats", 1_791_489, 28_511_807, 15.92, "medium", _wiki_twin,
                "hyperlink graph"),
    DatasetSpec("com-orkut", 3_072_441, 117_185_083, 38.14, "medium", _orkut_twin,
                "densest medium graph"),
    DatasetSpec("com-lj", 3_997_962, 34_681_189, 8.67, "medium", _lj_twin,
                "LiveJournal community graph"),
    DatasetSpec("soc-LiveJournal", 4_847_571, 68_993_773, 14.23, "medium", _livejournal_twin,
                "LiveJournal friendship graph"),
]

LARGE_DATASETS: list[DatasetSpec] = [
    DatasetSpec("hyperlink2012", 39_497_204, 623_056_313, 15.77, "large", _hyperlink_twin,
                "web hyperlink graph"),
    DatasetSpec("soc-sinaweibo", 58_655_849, 261_321_071, 4.46, "large", _sinaweibo_twin,
                "microblog follower graph; sparse"),
    DatasetSpec("twitter_rv", 41_652_230, 1_468_365_182, 35.25, "large", _twitter_twin,
                "twitter follower graph; dense"),
    DatasetSpec("com-friendster", 65_608_366, 1_806_067_135, 27.53, "large", _friendster_twin,
                "largest graph in the paper"),
]

ALL_DATASETS: list[DatasetSpec] = MEDIUM_DATASETS + LARGE_DATASETS

_BY_NAME = {spec.name: spec for spec in ALL_DATASETS}


def dataset_names(scale: str | None = None) -> list[str]:
    """Names of registered datasets, optionally filtered by scale."""
    return [s.name for s in ALL_DATASETS if scale is None or s.scale == scale]


def load_dataset(name: str, *, seed: int = 0) -> CSRGraph:
    """Build the synthetic twin of a paper graph by name."""
    if name not in _BY_NAME:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(_BY_NAME)}")
    return _BY_NAME[name].build(seed=seed)


def paper_table2_rows() -> list[dict[str, object]]:
    """Rows of the paper's Table 2 side by side with the twin's measured stats."""
    from ..graph.stats import compute_stats

    rows: list[dict[str, object]] = []
    for spec in ALL_DATASETS:
        twin = spec.build()
        stats = compute_stats(twin)
        rows.append({
            "Graph": spec.name,
            "paper |V|": spec.paper_vertices,
            "paper |E|": spec.paper_edges,
            "paper density": spec.paper_density,
            "twin |V|": stats.num_vertices,
            "twin |E|": stats.num_edges,
            "twin density": round(stats.density, 2),
            "scale": spec.scale,
        })
    return rows
