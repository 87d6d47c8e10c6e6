"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import swarmfit.bench  # noqa: E402
import swarmfit.cli  # noqa: E402
from swarmfit.pso import BoxDomain, SwarmConfig  # noqa: E402
import workload  # noqa: E402
from spans import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_traced_and_untraced_restarts_are_bit_identical(name):
    wl = workload.WORKLOADS[name]()
    wl.batch = 1 if name == "paper_grid" else 2
    wl.setup(seed=3, span=nullcontext)
    _, plain, plain_problems = wl.run_batch(seed=3, b=0)
    tracer = Tracer()
    with tracer.installed():
        _, traced, traced_problems = wl.run_batch(seed=3, b=0)
    assert plain_problems == traced_problems == []
    assert len(plain) == len(traced) > 0
    for (_, v1, x1), (_, v2, x2) in zip(plain, traced):
        assert v1 == v2
        assert np.array_equal(x1, x2)
    assert tracer.n_restarts == len(traced)
    assert swarmfit.cli.main.__module__ == "swarmfit.cli"  # rebinding undone


@pytest.mark.parametrize("name,trace,key", [
    ("paper_grid", "0", "end_to_end"),
    ("lbest_swarm", "1", "per_layer"),
])
def test_printed_metrics_are_the_declared_ones(name, trace, key):
    proc = run_command("--workload", name, "--seed", "2", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[key]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_command("--workload", "paper_grid", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_artifact_check_catches_a_wrong_row_and_a_missing_file(tmp_path):
    code = swarmfit.cli.main(["bench", "--settings", "all", "--data-seed", "1", "--seed", "1",
                              "--out-dir", str(tmp_path), "--restarts", "2", "--iters", "3"])
    assert code == 0
    restarts, problems = workload.check_artifacts(tmp_path, 2)
    assert problems == [] and len(restarts) == 24

    results = tmp_path / "results.csv"
    lines = results.read_text().splitlines()
    fields = lines[1].split(",")
    fields[2] = f"{float(fields[2]) + 0.01:.2f}"
    lines[1] = ",".join(fields)
    results.write_text("\n".join(lines) + "\n")
    assert len(workload.check_artifacts(tmp_path, 2)[1]) == 1

    (tmp_path / "curve_3_lbest.csv").unlink()
    assert workload.check_artifacts(tmp_path, 2)[1] == ["missing curve_3_lbest.csv"]


def test_tally_fails_a_restart_outside_the_box():
    wl = workload.WORKLOADS["lbest_swarm"]()
    wl.setup(seed=1, span=nullcontext)
    cell = wl.cells[None]
    inside = (cell.domain.lower + cell.domain.upper) / 2
    outside = cell.domain.upper + 1.0
    flat = np.ones(3)
    tally = workload.Tally(wl.cells)
    tally.add([(None, 1.0, inside), (None, 1.0, outside), (None, float("nan"), inside)],
              [flat, flat, flat], [], expected=3, score=True)
    tally.add([(None, 1.0, inside)], [np.array([1.0, 2.0])], [], expected=1, score=True)
    assert (tally.attempted, tally.failed) == (4, 3)


def test_traced_run_fails_restarts_that_differ_from_untraced(monkeypatch, tmp_path):
    domain = BoxDomain(np.zeros(2), np.ones(2))

    class Drifting:
        """Each call shifts the objective, so a batch's copies disagree."""

        restarts_per_batch = 1
        calls = 0

        def setup(self, seed, span):
            self.cells = {None: workload.Cell(domain, 10.0)}

        def run_batch(self, seed, b):
            Drifting.calls += 1
            shift = float(Drifting.calls)
            result = swarmfit.bench.optimize(
                lambda x: float(x @ x) + shift, domain, SwarmConfig(n_iterations=2)
            )
            return 0.1, [(None, result.best_value, result.best_position)], []

    monkeypatch.setitem(workload.WORKLOADS, "drifting", Drifting)
    monkeypatch.setattr(workload, "OUT_DIR", tmp_path)
    result = workload.run("drifting", seed=0, seconds=0, trace=True, t0=time.monotonic())
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert not result["correct"]
