"""Multi-restart benchmark orchestration and result emission.

One experiment cell fixes a dataset, then runs many independent PSO
restarts of the constrained fit and aggregates the terminal objective
values into best/mean/std/median summaries.  Restart seeds are derived
from a master seed with the SplitMix64 finisher, so restart r is a pure
function of (master_seed, r) and restarts can run in any order.

``run_restarts`` fits one cell.  ``write_bench_outputs`` is the one grid
runner: every requested setting under both topologies, with its artifacts
written as it goes.  Emission helpers render the summaries as plot- and
diff-friendly CSV (fixed decimal places, round half up) and as a JSON
document with full per-restart detail.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np

from .model import (
    DEFAULT_K_BOUNDS,
    DEFAULT_PHI_MAX,
    Dataset,
    NbParams,
    build_domain,
    decode_position,
    make_objective,
    save_dataset,
    sigmoid_mean,
)
from .pso import SwarmConfig, Topology, optimize
from .simulate import generate_dataset, get_setting

_MASK64 = (1 << 64) - 1
_CURVE_POINTS = 201


def mix64(master_seed: int, r: int) -> int:
    """Derive an independent 64-bit stream seed for restart index r.

    SplitMix64 finisher applied to master_seed XOR r: avalanche-mixes the
    two inputs so nearby restart indices get uncorrelated seeds.
    """
    z = (master_seed ^ r) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(eq=False)
class RunSummary:
    """Aggregate of one (dataset, topology) cell across restarts."""

    setting_id: int | None
    topology: Topology
    best: float
    mean: float
    std: float
    median: float
    best_params: NbParams
    per_restart: list[tuple[float, np.ndarray]]


@dataclass
class ExperimentConfig:
    """Full benchmark configuration: restart count, swarm tuning, box knobs."""

    restarts: int = 50
    swarm: SwarmConfig = field(default_factory=SwarmConfig)
    k_bounds: tuple[float, float] = DEFAULT_K_BOUNDS
    phi_max: int = DEFAULT_PHI_MAX
    master_seed: int = 0
    data_seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        for name in ("master_seed", "data_seed"):
            value = getattr(self, name)
            if not 0 <= value < 2**64:
                raise ValueError(f"{name} must be in [0, 2**64), got {value}")


def aggregate_restarts(
    per_restart: list[tuple[float, np.ndarray]],
    topology: Topology,
    setting_id: int | None = None,
) -> RunSummary:
    """Summary statistics over terminal restart values.

    std is the sample standard deviation (divisor R-1), reported as 0 for
    a single restart; the best-value tie goes to the lowest restart index.
    """
    values = np.array([v for v, _ in per_restart])
    best_idx = int(np.argmin(values))
    best_value, best_position = per_restart[best_idx]
    return RunSummary(
        setting_id=setting_id,
        topology=topology,
        best=float(best_value),
        mean=float(np.mean(values)),
        std=float(np.std(values, ddof=1)) if len(values) > 1 else 0.0,
        median=float(np.median(values)),
        best_params=decode_position(best_position),
        per_restart=per_restart,
    )


def run_restarts(
    data: Dataset,
    cfg: ExperimentConfig,
    topology: Topology,
    setting_id: int | None = None,
) -> RunSummary:
    """Fit one dataset cfg.restarts times under the given topology.

    The box and objective are built once; restart r runs with seed
    mix64(cfg.master_seed, r) on the same dataset.
    """
    topology = Topology(topology)
    domain = build_domain(data, cfg.k_bounds, cfg.phi_max)
    objective = make_objective(data)
    per_restart: list[tuple[float, np.ndarray]] = []
    for r in range(cfg.restarts):
        swarm_cfg = replace(
            cfg.swarm, topology=topology, seed=mix64(cfg.master_seed, r)
        )
        result = optimize(objective, domain, swarm_cfg)
        per_restart.append((result.best_value, result.best_position))
    return aggregate_restarts(per_restart, topology, setting_id)


def _fmt(value: float, places: int) -> str:
    """Fixed-point rendering with round half up (1.005 -> '1.01')."""
    quantum = Decimal(1).scaleb(-places)
    d = Decimal(repr(float(value))).quantize(quantum, rounding=ROUND_HALF_UP)
    if d == 0:
        d = abs(d)
    return f"{d:f}"


def emit_results_table(summaries) -> str:
    """Objective-value summary CSV, 2 decimals, sorted by (setting, topology)."""
    lines = ["setting,topology,best,mean,std,median"]
    for s in sorted(summaries, key=lambda s: (s.setting_id, s.topology.value)):
        lines.append(
            f"{s.setting_id},{s.topology.value},"
            f"{_fmt(s.best, 2)},{_fmt(s.mean, 2)},{_fmt(s.std, 2)},{_fmt(s.median, 2)}"
        )
    return "\n".join(lines) + "\n"


def emit_params_table(summaries) -> str:
    """Best-parameter CSV: k/t/mu at 4 decimals, phi as a bare integer."""
    lines = ["setting,topology,k_g,t_g,mu_g,phi_g"]
    for s in sorted(summaries, key=lambda s: (s.setting_id, s.topology.value)):
        p = s.best_params
        lines.append(
            f"{s.setting_id},{s.topology.value},"
            f"{_fmt(p.k_g, 4)},{_fmt(p.t_g, 4)},{_fmt(p.mu_g, 4)},{p.phi_g}"
        )
    return "\n".join(lines) + "\n"


def emit_fit_curve(params: NbParams, true_params: NbParams) -> str:
    """Plot-ready fitted and generating mean curves, header t,tau_fit,tau_true,
    one row per point t = j/(_CURVE_POINTS-1) of a uniform pseudotime grid."""
    t = np.arange(_CURVE_POINTS) / (_CURVE_POINTS - 1)
    columns = (t, sigmoid_mean(t, params), sigmoid_mean(t, true_params))
    rows = (",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns)))
    return "\n".join(["t,tau_fit,tau_true", *rows]) + "\n"


def summary_to_dict(s: RunSummary) -> dict:
    return {
        "setting": s.setting_id,
        "topology": s.topology.value,
        "best": s.best,
        "mean": s.mean,
        "std": s.std,
        "median": s.median,
        "best_params": asdict(s.best_params),
        "per_restart": [
            {"value": float(v), "position": [float(c) for c in pos]}
            for v, pos in s.per_restart
        ],
    }


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """cfg as a JSON document, without the swarm topology and seed that each
    restart sets for itself."""
    doc = asdict(cfg)
    del doc["swarm"]["topology"], doc["swarm"]["seed"]
    doc["k_bounds"] = list(cfg.k_bounds)
    return doc


def write_bench_outputs(out_dir, cfg: ExperimentConfig, settings) -> list[RunSummary]:
    """Run both topologies on each requested setting and write all artifacts
    under out_dir; return the summaries in setting order, gbest before lbest.

    Every setting id is resolved, and an empty list rejected, before out_dir
    is created.  Each dataset is generated once from cfg.data_seed and shared
    by both topologies and all restarts, so only the swarm initialization
    varies across the comparison.

    Files: results.csv and params.csv (summary tables), one
    curve_<setting>_<topology>.csv per cell, data_<setting>.csv with the
    generated dataset, and run.json with full per-restart detail.
    """
    resolved = [get_setting(setting_id) for setting_id in settings]
    if not resolved:
        raise ValueError("settings must be non-empty")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summaries: list[RunSummary] = []
    for setting in resolved:
        data = generate_dataset(setting, cfg.data_seed)
        save_dataset(data, out / f"data_{setting.id}.csv")
        for topology in (Topology.GBEST, Topology.LBEST):
            s = run_restarts(data, cfg, topology, setting.id)
            curve = emit_fit_curve(s.best_params, setting.params)
            (out / f"curve_{setting.id}_{topology.value}.csv").write_text(curve)
            summaries.append(s)
    (out / "results.csv").write_text(emit_results_table(summaries))
    (out / "params.csv").write_text(emit_params_table(summaries))
    doc = {"config": config_to_dict(cfg), "summaries": [summary_to_dict(s) for s in summaries]}
    (out / "run.json").write_text(json.dumps(doc, indent=2) + "\n")
    return summaries
