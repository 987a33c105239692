"""The ``paper-sweep`` workload: Figure 1 at the paper's full scale.

6 data-center counts x 4 strategies x 30 runs = 720 ``PlacementRunSpec``
cells, k = 3, m = 10, run through ``repro.runner.execute`` with one
worker per CPU, no cache and the world shipped to the pool once.  Pool
start-up is inside the timed call, as every user of the runner pays it.
"""

from __future__ import annotations

import numpy as np

from repro.runner import PlacementRunSpec, strategy_spec

DC_COUNTS = (5, 10, 15, 20, 25, 30)
N_RUNS = 30
K = 3
M = 10

#: Strategy kind -> the name per-layer metrics use for it.
STRATEGIES = {
    "random": strategy_spec("random"),
    "offline-kmeans": strategy_spec("offline_kmeans"),
    "online": strategy_spec("online", micro_clusters=M),
    "optimal": strategy_spec("optimal"),
}

#: Cells re-executed serially in the parent by the correctness gate.
GATE_SAMPLE = 24


def build_specs(seed: int) -> list[PlacementRunSpec]:
    return [
        PlacementRunSpec(sweep="figure1", series=label, x=float(n_dc),
                         run_index=run, n_dc=n_dc, k=K, strategy=strategy,
                         seed=seed, candidate_mode="dispersed")
        for n_dc in DC_COUNTS
        for label, strategy in STRATEGIES.items()
        for run in range(N_RUNS)
    ]


def sample_indices(seed: int, n_cells: int, size: int) -> list[int]:
    """A seeded sample of cell indices, sorted."""
    rng = np.random.default_rng((seed, 7919))
    return sorted(int(i) for i in rng.choice(n_cells, size=size,
                                             replace=False))


def optimal_violations(specs, results) -> list[str]:
    """Cells where a strategy beat exhaustive search, which cannot be.

    A strategy that finds the optimal set itself ties exactly; the
    relative slack of 1e-12 only absorbs a different summation order on
    an equally good set.
    """
    best = {(s.n_dc, s.run_index): r for s, r in zip(specs, results)
            if s.series == "optimal"}
    bad = []
    for spec, delay in zip(specs, results):
        bound = best[(spec.n_dc, spec.run_index)]
        if delay < bound * (1.0 - 1e-12):
            bad.append(f"{spec.series} n_dc={spec.n_dc} run={spec.run_index}"
                       f": {delay!r} < optimal {bound!r}")
    return bad


def series_mean(specs, results, label: str) -> float:
    return float(np.mean([r for s, r in zip(specs, results)
                          if s.series == label]))
