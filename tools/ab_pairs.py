"""Alternating parent/change benchmark pairs, summarised per end-to-end metric.

    python3 tools/ab_pairs.py --parent ../parent --change . --seed 1 --pairs 10

Each pair runs the benchmark command of BENCHMARK.json (``python3
perfbench/run.py``) once in each checkout, ``--workload W --seed S --seconds
T`` with T the ``run_seconds`` of the change's BENCHMARK.json, so both sides
run as long as the benchmark does, one process at a time; even pairs run the
parent first, odd pairs the change.  For every workload, seed and end-to-end metric of the change's
BENCHMARK.json it prints each side's median and quartiles, how many pairs the
change won (ties count for neither side), the ratio of the medians, and
whether the medians differ by more than the parent's interquartile range.
Quartiles interpolate linearly between order statistics (``statistics``'
inclusive method).  Exits 1 as soon as a run fails: a non-zero exit, output
that is not the benchmark's JSON line, or ``correct`` false, which perfbench
reports when any operation of the run failed.

Uses the standard library only and imports neither checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Compare paired runs of one metric; better is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    return {
        "parent": (p1, p_med, p3),
        "change": (c1, c_med, c3),
        "change_wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change, strict=True)),
        "pairs": len(parent),
        "ratio": c_med / p_med if p_med else float("nan"),
        "gap_exceeds_parent_iqr": abs(c_med - p_med) > p3 - p1,
    }


class RunFailed(Exception):
    pass


def run_once(command: list[str], checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout; its metric values by name."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True)
    except OSError as exc:  # a missing checkout or interpreter
        raise RunFailed(f"{checkout}: {exc}") from None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or result.get("correct") is not True:
        raise RunFailed(f"{checkout}: {' '.join(argv)} exited {proc.returncode}: "
                        f"{lines[-1] if lines else 'no output'}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: every workload)")
    parser.add_argument("--seed", type=int, action="append", help="seed (repeatable; default: 1)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload and seed")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for workload in workloads:
        for seed in args.seed or [1]:
            runs: dict = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
                for side in order:
                    try:
                        metrics = run_once(spec["command"], sides[side], workload, seed,
                                           spec["run_seconds"])
                    except RunFailed as exc:
                        print(f"ab_pairs: {exc}", file=sys.stderr)
                        return 1
                    runs[side].append(metrics)
                    print(f"{workload} seed {seed} pair {pair} {side}: {json.dumps(metrics)}",
                          file=sys.stderr, flush=True)
            for metric in spec["end_to_end"]:
                name = metric["name"]
                s = summarize([r[name] for r in runs["parent"]],
                              [r[name] for r in runs["change"]], metric["better"])
                (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
                print(f"{workload} seed {seed} {name} ({metric['better']} is better): "
                      f"parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} [{c1:.4g}, {c3:.4g}]"
                      f"  change won {s['change_wins']}/{s['pairs']}  ratio {s['ratio']:.3f}  "
                      f"gap {'exceeds' if s['gap_exceeds_parent_iqr'] else 'within'} parent IQR",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
