"""swarmfit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0

Run it from the root of a swarmfit source checkout; the package is imported
from ``src/``, nothing is installed.  Each run starts fresh processes one at a
time, with BLAS/OpenMP thread counts pinned to 1: with ``--trace 0``, a few
that only set up (for the median ``setup_s``) and one that sets up and fits
for ``--seconds``; with ``--trace 1``, one that fits with every layer traced.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it and
``.perfbench_out/result-*.json`` record the environment and run details.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
# Processes that set the workload up; setup_s is the median over them.
SETUP_REPEATS = 5
# Every process of one run must end within this many seconds.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, deadline: float, *extra: str) -> dict:
    """Start one workload process, wait for it and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a workload process")
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        *extra,
        "--t0", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"workload process exceeded {DEADLINE_S:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    if not (ROOT / "src" / "swarmfit" / "__init__.py").is_file():
        print(f"perfbench: no swarmfit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(run_child(args, deadline, "--setup-only")["setup_s"])
        result = run_child(args, deadline)
    except (RunError, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    info = result.pop("info")
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    if not args.trace:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
        info["setup_s_samples"] = setups
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({"info": info, **result}, indent=2) + "\n")
    print("perfbench info: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
