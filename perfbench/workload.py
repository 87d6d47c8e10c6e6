"""One benchmark workload, run in its own fresh process.

The process sets the workload up (imports swarmfit, generates the data from
the seed, builds the box and the objective), runs batches of PSO restarts
through swarmfit's public API until the run time is used up, checks every
restart and artifact, and prints one JSON object on its last stdout line.
``run.py`` starts this file; see README.md for the metrics it reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np
import scipy

import swarmfit.bench
import swarmfit.cli
from swarmfit.bench import ExperimentConfig
from swarmfit.model import build_domain, make_objective
from swarmfit.pso import BoxDomain, SwarmConfig
from swarmfit.simulate import generate_dataset, get_setting

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# A restart "hits" when its terminal NLL is within this margin of the NLL at
# the generating parameters, the margin of the paper's dominance criterion.
HIT_MARGIN = 0.5
# Each run times at least this many restarts, so that restart_ms.p90 has at
# least ten samples beyond it.
MIN_RESTARTS = 100
# The timed loop stops starting batches after this long, whatever the
# minimum, so that a slow program still ends inside the run's time limit.
HARD_STOP_S = 120.0
SETTING_IDS = (1, 2, 3, 4, 5, 6)


@dataclass
class Cell:
    """One dataset a restart can fit: its box and reference NLL."""

    domain: BoxDomain
    ref_nll: float


def reference_cell(setting, data, span) -> Cell:
    with span("model.build_domain"):
        domain = build_domain(data)
    objective = make_objective(data)
    p = setting.params
    truth = np.clip([p.k_g, p.t_g, p.mu_g, float(p.phi_g)], domain.lower, domain.upper)
    return Cell(domain, objective(truth))


def batch_seed(seed: int, b: int) -> int:
    """Master seed of batch b: distinct batches fit distinct restarts."""
    return seed * 1_000_003 + b


class FitWorkload:
    """One dataset fitted through ``bench.run_restarts`` in batches."""

    def __init__(self, setting, topology: str, swarm: SwarmConfig, batch: int):
        self.setting = setting
        self.topology = topology
        self.swarm = swarm
        self.batch = batch
        self.restarts_per_batch = batch

    def setup(self, seed: int, span) -> None:
        with span("simulate.generate_dataset"):
            self.data = generate_dataset(self.setting, seed)
        self.cells = {None: reference_cell(self.setting, self.data, span)}

    def run_batch(self, seed: int, b: int):
        cfg = ExperimentConfig(
            restarts=self.batch, swarm=self.swarm, master_seed=batch_seed(seed, b)
        )
        start = time.perf_counter()
        summary = swarmfit.bench.run_restarts(self.data, cfg, self.topology)
        elapsed = time.perf_counter() - start
        restarts = [(None, value, pos) for value, pos in summary.per_restart]
        return elapsed, restarts, []


class GridWorkload:
    """The paper's experiment: ``swarmfit bench --settings all`` via cli.main."""

    batch = 10  # --restarts per cell
    restarts_per_batch = batch * 2 * len(SETTING_IDS)

    def setup(self, seed: int, span) -> None:
        self.cells = {}
        for setting_id in SETTING_IDS:
            setting = get_setting(setting_id)
            with span("simulate.generate_dataset"):
                data = generate_dataset(setting, seed)
            self.cells[setting_id] = reference_cell(setting, data, span)

    def run_batch(self, seed: int, b: int):
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            argv = [
                "bench", "--settings", "all", "--data-seed", str(seed),
                "--seed", str(batch_seed(seed, b)), "--out-dir", tmp,
                "--restarts", str(self.batch),
            ]
            start = time.perf_counter()
            code = swarmfit.cli.main(argv)
            elapsed = time.perf_counter() - start
            if code != 0:
                return elapsed, [], [f"swarmfit bench exited with {code}"]
            restarts, problems = check_artifacts(Path(tmp), self.batch)
        return elapsed, restarts, problems


def check_artifacts(out: Path, restarts_per_cell: int):
    """Check the files ``swarmfit bench`` wrote; return its restarts and problems."""
    expected = ["results.csv", "params.csv", "run.json"]
    expected += [f"data_{s}.csv" for s in SETTING_IDS]
    expected += [f"curve_{s}_{t}.csv" for s in SETTING_IDS for t in ("gbest", "lbest")]
    problems = [f"missing {name}" for name in expected if not (out / name).is_file()]
    if problems:
        return [], problems
    summaries = json.loads((out / "run.json").read_text())["summaries"]
    rows = (out / "results.csv").read_text().splitlines()
    table = {tuple(row.split(",")[:2]): row.split(",")[2:] for row in rows[1:]}
    restarts = []
    for s in summaries:
        values = np.array([r["value"] for r in s["per_restart"]])
        if values.size != restarts_per_cell:
            problems.append(f"cell {s['setting']} {s['topology']}: {values.size} restarts")
            continue
        std = values.std(ddof=1) if values.size > 1 else 0.0
        stats = [values.min(), values.mean(), std, np.median(values)]
        row = table.get((str(s["setting"]), s["topology"]))
        quantum = Decimal("0.01")
        recomputed = [Decimal(repr(float(v))).quantize(quantum, ROUND_HALF_UP) for v in stats]
        if row is None or [Decimal(v) for v in row] != recomputed:
            problems.append(f"results.csv row for {s['setting']} {s['topology']}: {row}")
        restarts += [
            (s["setting"], r["value"], np.array(r["position"])) for r in s["per_restart"]
        ]
    if len(summaries) != 2 * len(SETTING_IDS):
        problems.append(f"run.json has {len(summaries)} cells")
    return restarts, problems


WORKLOADS = {
    "paper_grid": GridWorkload,
    "wide_cells": lambda: FitWorkload(
        replace(get_setting(1), C=20_000), "gbest", SwarmConfig(), batch=5
    ),
    "lbest_swarm": lambda: FitWorkload(
        get_setting(6), "lbest", SwarmConfig(n_particles=40, m_neighbors=8), batch=10
    ),
}


class RestartTimer:
    """Times every ``optimize`` call, the boundary of one restart."""

    def __init__(self):
        self.ms: list[float] = []
        self.traces: list[np.ndarray] = []

    @contextmanager
    def installed(self):
        optimize = swarmfit.bench.optimize

        def timed(objective, domain, config):
            start = time.perf_counter()
            result = optimize(objective, domain, config)
            self.ms.append((time.perf_counter() - start) * 1e3)
            self.traces.append(result.trace)
            return result

        swarmfit.bench.optimize = timed
        try:
            yield self
        finally:
            swarmfit.bench.optimize = optimize


class Tally:
    """Attempted, failed and hit restarts, with the reason of each failure."""

    def __init__(self, cells: dict):
        self.cells = cells
        self.attempted = 0
        self.failed = 0
        self.hits = 0
        self.scored = 0
        self.problems: list[str] = []

    def add(self, restarts, traces, problems, expected: int, score: bool) -> None:
        """Check one batch; a batch-level problem fails all its restarts.

        A restart fails when its value is not finite, its position is outside
        the box or its best-value trace ever increases.  ``score`` counts the
        batch's hits.
        """
        if len(traces) != len(restarts):
            problems = problems + [f"{len(traces)} optimize calls for {len(restarts)} restarts"]
        bad = 0
        for (key, value, position), trace in zip(restarts, traces):
            cell = self.cells[key]
            ok = math.isfinite(value) and cell.domain.contains(position)
            ok = ok and not np.any(np.diff(trace) > 0)
            bad += not ok
            if score:
                self.hits += ok and value <= cell.ref_nll + HIT_MARGIN
                self.scored += 1
        n = max(len(restarts), expected)
        self.attempted += n
        self.failed += n if problems else bad
        self.problems += problems[:3]
        if bad:
            self.problems.append(f"{bad} restarts non-finite, outside the box or non-monotone")


def run(workload_name: str, seed: int, seconds: float, trace: bool, t0: float) -> dict:
    """Set up, run batches for ``seconds`` and return the result object.

    With ``trace`` every batch runs twice, untraced and then traced with the
    same seeds; the two must give bit-identical restarts, and the time the
    traced copies take over the untraced ones is the tracing overhead.
    """
    tracer = Tracer() if trace else None
    workload = WORKLOADS[workload_name]()
    workload.setup(seed, tracer.span if trace else nullcontext)
    setup_s = time.monotonic() - t0

    tally = Tally(workload.cells)
    per_batch = workload.restarts_per_batch
    fit_s = traced_s = 0.0

    def batch(b, untraced=None):
        """Run batch b; traced when given the restarts of its untraced copy."""
        traced = untraced is not None
        first = len(timer.traces)
        try:
            with tracer.installed() if traced else nullcontext():
                elapsed, restarts, problems = workload.run_batch(seed, b)
        except Exception as exc:  # a restart that raises fails its whole batch
            elapsed, restarts, problems = 0.0, [], [f"{type(exc).__name__}: {exc}"]
        if traced and not (len(untraced) == len(restarts) and all(
            u[1] == r[1] and np.array_equal(u[2], r[2]) for u, r in zip(untraced, restarts)
        )):
            problems = problems + [f"batch {b}: traced restarts differ from untraced"]
        tally.add(restarts, timer.traces[first:], problems, per_batch, score=not traced)
        del timer.traces[first:]
        return elapsed, restarts

    min_batches = 1 if trace else -(-MIN_RESTARTS // per_batch)
    start = time.monotonic()
    b = 0
    with RestartTimer().installed() as timer:
        while True:
            elapsed = time.monotonic() - start
            if elapsed >= HARD_STOP_S or (elapsed >= seconds and b >= min_batches):
                break
            plain_s, plain = batch(b)
            fit_s += plain_s
            if trace:
                traced_s += batch(b, untraced=plain)[0]
            b += 1

    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{workload_name}-seed{seed}.npz")
        metrics = tracer.layer_metrics(max(traced_s, 1e-9) * 1e9)
        metrics["pso.hit_share"] = (tally.hits / max(tally.scored, 1), "fraction")
        metrics["trace.overhead"] = (1.0 - fit_s / traced_s if traced_s else 0.0, "fraction")
    else:
        metrics = {
            "restart_ms.p90": (float(np.percentile(timer.ms, 90)) if timer.ms else 0.0, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "info": {
            "batches": b,
            "restarts_timed": len(timer.ms),
            "fit_s": fit_s,
            # Unbounded: they swing with the host's CPU speed (see README.md).
            "restarts_per_s": len(timer.ms) / fit_s if fit_s and not trace else None,
            "restart_ms_p50": float(np.median(timer.ms)) if timer.ms and not trace else None,
            "problems": tally.problems[:20],
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        workload = WORKLOADS[args.workload]()
        workload.setup(args.seed, nullcontext)
        print(json.dumps({"setup_s": time.monotonic() - args.t0}))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
