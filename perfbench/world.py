"""The paper's evaluation world, built from the workload seed.

``build_world(seed)`` makes exactly what
``EvaluationSetting(n_nodes=226, coord_system="rnp", seed=seed).build()``
makes: the 226-node synthetic PlanetLab matrix and its RNP embedding
(3-D coordinates plus a height).  It calls the two layer entry points
itself so the span recorder can time them from outside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coords import embed_matrix
from repro.net import (LatencyMatrix, PlanetLabParams,
                       synthetic_planetlab_matrix)

N_NODES = 226
COORD_SYSTEM = "rnp"
EMBED_ROUNDS = 100


@dataclass(frozen=True)
class World:
    matrix: LatencyMatrix
    planar: np.ndarray
    heights: np.ndarray | None

    def as_tuple(self) -> tuple:
        """The ``(matrix, coords, heights)`` form the runner accepts."""
        return (self.matrix, self.planar, self.heights)

    def same_as(self, other: "World") -> bool:
        """Bitwise equality: world builds must be deterministic."""
        heights_equal = (
            (self.heights is None and other.heights is None)
            or (self.heights is not None and other.heights is not None
                and np.array_equal(self.heights, other.heights)))
        return (np.array_equal(self.matrix.rtt, other.matrix.rtt)
                and np.array_equal(self.planar, other.planar)
                and heights_equal)


def build_world(seed: int, recorder) -> World:
    """Matrix plus embedding, each inside its own span."""
    with recorder.span("net.matrix"):
        matrix, _ = synthetic_planetlab_matrix(
            PlanetLabParams(n=N_NODES), seed=seed)
    with recorder.span("coords.embed"):
        result = embed_matrix(matrix, system=COORD_SYSTEM,
                              rounds=EMBED_ROUNDS,
                              rng=np.random.default_rng(seed + 1))
    planar = result.coords[:, :result.space.dim]
    heights = result.coords[:, -1] if result.space.use_height else None
    return World(matrix, planar, heights)
