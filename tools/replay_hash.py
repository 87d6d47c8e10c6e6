"""Replay hash: one digest of the optimizer's results per benchmark shape.

    PYTHONPATH=<checkout>/src python3 tools/replay_hash.py

Simulates data seed 1 and runs a few ``swarmfit.optimize`` restarts on each
of the three shapes the benchmark's workloads fit, restart r seeded
``mix64(7, r)``:

- paper_grid: settings 1-6, gbest and lbest, the default swarm, 2 restarts each;
- wide_cells: setting 1 at C = 20000, gbest, 2 restarts;
- lbest_swarm: setting 6, lbest, 40 particles, m = 8, 5 restarts.

Prints one JSON line: per shape, the SHA-256 over the float64 bytes of every
restart's best value, best position and trace, in run order, and the median
in-process restart time in ms.  Two checkouts that give the same results bit
for bit print the same digests; the times are information only.

Run as a script, it pins BLAS to one thread, as the benchmark does: OpenBLAS
splits a long dot product (C = 20000) over its threads and sums it in another
order, which changes wide_cells' digest.

Uses the standard library, numpy and swarmfit only.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from dataclasses import replace

if __name__ == "__main__":  # before numpy loads BLAS
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = "1"

import numpy as np

from swarmfit import SwarmConfig, build_domain, generate_dataset, get_setting, make_objective, optimize
from swarmfit.bench import mix64
from swarmfit.pso import Topology

DATA_SEED = 1
MASTER_SEED = 7
# shape -> cells of (setting, swarm, restarts)
SHAPES = {
    "paper_grid": [
        (get_setting(s), SwarmConfig(topology=t), 2) for s in range(1, 7) for t in Topology
    ],
    "wide_cells": [(replace(get_setting(1), C=20_000), SwarmConfig(), 2)],
    "lbest_swarm": [
        (get_setting(6), SwarmConfig(topology=Topology.LBEST, n_particles=40, m_neighbors=8), 5)
    ],
}


def replay(cells) -> tuple[list, list[float]]:
    """Run the restarts of each cell; return their OptResults and times in ms."""
    results, times = [], []
    for setting, swarm, restarts in cells:
        data = generate_dataset(setting, DATA_SEED)
        domain, objective = build_domain(data), make_objective(data)
        for r in range(restarts):
            start = time.perf_counter()
            results.append(optimize(objective, domain, replace(swarm, seed=mix64(MASTER_SEED, r))))
            times.append((time.perf_counter() - start) * 1e3)
    return results, times


def digest(results) -> str:
    """SHA-256 over each result's value, position and trace bytes, in order."""
    h = hashlib.sha256()
    for result in results:
        h.update(np.float64(result.best_value).tobytes())
        h.update(np.ascontiguousarray(result.best_position, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(result.trace, dtype=np.float64).tobytes())
    return h.hexdigest()


def main() -> int:
    out = {}
    for name, cells in SHAPES.items():
        results, times = replay(cells)
        out[name] = {"sha256": digest(results), "restart_ms_median": round(statistics.median(times), 3)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
