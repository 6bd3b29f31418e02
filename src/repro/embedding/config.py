"""GOSH configuration objects (Table 3 of the paper).

The paper evaluates three named configurations plus a no-coarsening variant:

=============  =====  ======  =================  ================
Configuration    p      lr     e (medium-scale)   e (large-scale)
=============  =====  ======  =================  ================
Fast            0.1    0.050         600               100
Normal          0.3    0.035        1000               200
Slow            0.5    0.025        1400               300
NoCoarsening     —     0.045        1000               200
=============  =====  ======  =================  ================

``epochs_scale`` lets the harness shrink the epoch budgets proportionally for
the laptop-sized synthetic twins while keeping the fast/normal/slow ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["GoshConfig", "FAST", "NORMAL", "SLOW", "NO_COARSE", "get_config", "CONFIGURATIONS"]


@dataclass(frozen=True)
class GoshConfig:
    """Hyper-parameters of a GOSH run.

    Attributes mirror the notation of Table 1 / Table 3:

    * ``dim`` — d, features per vertex.
    * ``negative_samples`` — ns.
    * ``learning_rate`` — initial lr (decayed per epoch within each level).
    * ``epochs`` — e, total epoch budget across all levels.
    * ``smoothing_ratio`` — p, fraction of epochs distributed uniformly.
    * ``coarsening_threshold`` — stop coarsening below this many vertices.
    * ``use_coarsening`` — False reproduces the Gosh-NoCoarse rows.
    * ``small_dim_mode`` — the Section 3.1.1 warp-packing switch.
    """

    name: str = "normal"
    dim: int = 128
    negative_samples: int = 3
    learning_rate: float = 0.035
    learning_rate_decay_floor: float = 1e-4
    epochs: int = 1000
    epochs_large: int = 200
    smoothing_ratio: float = 0.3
    coarsening_threshold: int = 100
    max_coarsening_levels: int = 32
    use_coarsening: bool = True
    use_parallel_coarsening: bool = True
    small_dim_mode: bool = True
    seed: int = 0
    # Large-graph engine knobs (Section 3.3 defaults).
    positive_batch_per_vertex: int = 5   # B
    resident_submatrices: int = 3        # P_GPU
    resident_sample_pools: int = 4       # S_GPU

    def scaled(self, epochs_scale: float = 1.0, *, dim: int | None = None) -> "GoshConfig":
        """Return a copy with the epoch budget scaled (and optionally a new d)."""
        new_epochs = max(1, int(round(self.epochs * epochs_scale)))
        new_epochs_large = max(1, int(round(self.epochs_large * epochs_scale)))
        return replace(self, epochs=new_epochs, epochs_large=new_epochs_large,
                       dim=dim if dim is not None else self.dim)

    def with_(self, **kwargs) -> "GoshConfig":
        """Convenience wrapper over :func:`dataclasses.replace`."""
        return replace(self, **kwargs)

    def metadata_echo(self) -> dict[str, object]:
        """The configuration echo stamped into result (and store) metadata.

        One definition shared by :meth:`EmbeddingResult.from_gosh` and the
        checkpoint layer: the store's config hash is computed over exactly
        these keys, so a checkpoint written mid-run and the final result of
        the same run land in lineages with the same hash — which is what lets
        ``--resume`` find the right checkpoint lineage by hash alone.
        """
        return {
            "config": self.name,
            "dim": self.dim,
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "seed": self.seed,
        }

    def validate(self) -> None:
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        if not (0.0 <= self.smoothing_ratio <= 1.0):
            raise ValueError("smoothing_ratio must be in [0, 1]")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.negative_samples < 0:
            raise ValueError("negative_samples must be non-negative")
        if self.coarsening_threshold < 1:
            raise ValueError("coarsening_threshold must be >= 1")
        if self.positive_batch_per_vertex < 1:
            raise ValueError("positive_batch_per_vertex (B) must be >= 1")
        if self.resident_submatrices < 2:
            raise ValueError("resident_submatrices (P_GPU) must be >= 2")
        if self.resident_sample_pools < 1:
            raise ValueError("resident_sample_pools (S_GPU) must be >= 1")


#: Table 3 rows.
FAST = GoshConfig(name="fast", smoothing_ratio=0.1, learning_rate=0.050,
                  epochs=600, epochs_large=100)
NORMAL = GoshConfig(name="normal", smoothing_ratio=0.3, learning_rate=0.035,
                    epochs=1000, epochs_large=200)
SLOW = GoshConfig(name="slow", smoothing_ratio=0.5, learning_rate=0.025,
                  epochs=1400, epochs_large=300)
NO_COARSE = GoshConfig(name="no-coarsening", smoothing_ratio=0.0, learning_rate=0.045,
                       epochs=1000, epochs_large=200, use_coarsening=False)

CONFIGURATIONS: dict[str, GoshConfig] = {
    "fast": FAST,
    "normal": NORMAL,
    "slow": SLOW,
    "no-coarsening": NO_COARSE,
    "nocoarse": NO_COARSE,
}


def get_config(name: str) -> GoshConfig:
    """Look up a Table 3 configuration by name (case-insensitive)."""
    key = name.strip().lower()
    if key not in CONFIGURATIONS:
        raise KeyError(f"unknown configuration {name!r}; options: fast, normal, slow, no-coarsening")
    return CONFIGURATIONS[key]
