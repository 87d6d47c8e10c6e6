"""Command-line interface: simulate, fit, bench.

Every flag may also be supplied through ``--config <path.json>`` (keys are
the flag names, hyphens or underscores); explicit flags override the file.
Tuning options left unset keep the library defaults of ``SwarmConfig`` and
``ExperimentConfig``.  Exits 0 on success and 1 with a diagnostic on
validation failure, including a config value of the wrong JSON type.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (
    ExperimentConfig,
    config_to_dict,
    run_restarts,
    summary_to_dict,
    write_bench_outputs,
)
from .model import DEFAULT_K_BOUNDS, load_dataset, save_dataset
from .pso import SwarmConfig, Topology
from .simulate import generate_dataset, get_setting

_TUNING_FLAGS = [
    ("--w", float, "inertia weight"),
    ("--c1", float, "cognitive coefficient"),
    ("--c2", float, "social coefficient"),
    ("--particles", int, "swarm size"),
    ("--iters", int, "iterations per restart"),
    ("--m", int, "neighborhood size (lbest)"),
    ("--restarts", int, "independent restarts"),
    ("--k-min", float, "lower bound on activation strength"),
    ("--k-max", float, "upper bound on activation strength"),
    ("--phi-max", int, "upper bound on dispersion"),
]
_TUNING_KEYS = {flag[2:].replace("-", "_") for flag, _, _ in _TUNING_FLAGS}

# Option key -> type of its config-file value; "settings" is parsed by _parse_settings.
_OPTION_TYPES = {
    "setting": int, "seed": int, "data_seed": int,
    "data": str, "out": str, "out_dir": str, "topology": str,
    **{flag[2:].replace("-", "_"): ftype for flag, ftype, _ in _TUNING_FLAGS},
}
# Option key -> the SwarmConfig / ExperimentConfig field it sets.
_SWARM_FIELDS = {"w": "w", "c1": "c1", "c2": "c2",
                 "particles": "n_particles", "iters": "n_iterations", "m": "m_neighbors"}
_EXPERIMENT_FIELDS = {"restarts": "restarts", "phi_max": "phi_max",
                      "seed": "master_seed", "data_seed": "data_seed"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmfit",
        description="PSO fitting of the sigmoidal negative-binomial pseudotime model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate one synthetic dataset")
    p_sim.add_argument("--setting", type=int, help="scenario id, 1..6")
    p_sim.add_argument("--seed", type=int, help="dataset seed (u64)")
    p_sim.add_argument("--out", help="output CSV path")
    p_sim.add_argument("--config", help="JSON file supplying any flag")

    p_fit = sub.add_parser("fit", help="multi-restart fit of one dataset")
    p_fit.add_argument("--data", help="input t,y CSV path")
    p_fit.add_argument("--topology", choices=["gbest", "lbest"])
    for flag, ftype, help_text in _TUNING_FLAGS:
        p_fit.add_argument(flag, type=ftype, help=help_text)
    p_fit.add_argument("--seed", type=int, help="master seed for restart derivation")
    p_fit.add_argument("--out", help="output JSON path")
    p_fit.add_argument("--config", help="JSON file supplying any flag")

    p_bench = sub.add_parser("bench", help="full benchmark over built-in settings")
    p_bench.add_argument("--settings", help="comma-separated ids or 'all'")
    p_bench.add_argument("--data-seed", type=int, help="dataset seed (u64)")
    p_bench.add_argument("--seed", type=int, help="master seed for restart derivation")
    p_bench.add_argument("--out-dir", help="output directory")
    for flag, ftype, help_text in _TUNING_FLAGS:
        p_bench.add_argument(flag, type=ftype, help=help_text)
    p_bench.add_argument("--config", help="JSON file supplying any flag")

    return parser


# Option type -> the JSON value types it accepts; a JSON boolean is never a number.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _coerce(source: str, key: str, value):
    """Convert a config-file value to its option type, or raise ValueError naming the key."""
    kind = _OPTION_TYPES.get(key)
    if value is None or kind is None:
        return value
    if isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool):
        try:
            return kind(value)
        except OverflowError:
            pass
    raise ValueError(f"{source}: config key {key!r} must be {kind.__name__}, got {value!r}")


def _merge_options(args: argparse.Namespace, known: set[str]) -> dict:
    """Merge config-file values and explicit flags (flags win)."""
    merged: dict = {}
    if args.config is not None:
        raw = json.loads(Path(args.config).read_text())
        if not isinstance(raw, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        for key, value in raw.items():
            norm = key.replace("-", "_")
            if norm not in known:
                raise ValueError(f"{args.config}: unknown config key {key!r}")
            merged[norm] = _coerce(args.config, norm, value)
    for key in known:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _require(options: dict, *keys: str) -> None:
    missing = [k for k in keys if options.get(k) is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ValueError(f"missing required option(s): {flags}")


def _experiment_config(options: dict) -> ExperimentConfig:
    """Config from the options that are set; the others keep the library defaults."""
    given = {k: v for k, v in options.items() if v is not None}
    swarm = SwarmConfig(**{f: given[k] for k, f in _SWARM_FIELDS.items() if k in given})
    fields = {f: given[k] for k, f in _EXPERIMENT_FIELDS.items() if k in given}
    if "k_min" in given or "k_max" in given:
        k_min, k_max = DEFAULT_K_BOUNDS
        fields["k_bounds"] = (given.get("k_min", k_min), given.get("k_max", k_max))
    return ExperimentConfig(swarm=swarm, **fields)


def _parse_settings(raw: str | list) -> list[int]:
    if isinstance(raw, str):
        if raw.strip().lower() == "all":
            return [1, 2, 3, 4, 5, 6]
        parts = [part for part in raw.split(",") if part.strip()]
    elif isinstance(raw, list):
        if not all(isinstance(p, int) and not isinstance(p, bool) for p in raw):
            raise ValueError(f"settings list must hold integers, got {raw!r}")
        parts = raw
    else:
        raise ValueError(f"settings must be a comma-separated string or a list, got {raw!r}")
    try:
        ids = [int(part) for part in parts]
    except (TypeError, ValueError):
        raise ValueError(f"cannot parse settings list {raw!r}") from None
    if not ids:
        raise ValueError("settings list is empty")
    unique = list(dict.fromkeys(ids))
    for setting_id in unique:
        get_setting(setting_id)
    return unique


def _cmd_simulate(args: argparse.Namespace) -> int:
    options = _merge_options(args, {"setting", "seed", "out"})
    _require(options, "setting", "seed", "out")
    setting = get_setting(options["setting"])
    data = generate_dataset(setting, options["seed"])
    save_dataset(data, options["out"])
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    known = {"data", "topology", "seed", "out"} | _TUNING_KEYS
    options = _merge_options(args, known)
    _require(options, "data", "topology", "out")
    data = load_dataset(options["data"])
    cfg = _experiment_config(options)
    summary = run_restarts(data, cfg, Topology(options["topology"]))
    doc = {"config": config_to_dict(cfg), "summary": summary_to_dict(summary)}
    Path(options["out"]).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    known = {"settings", "data_seed", "seed", "out_dir"} | _TUNING_KEYS
    options = _merge_options(args, known)
    _require(options, "settings", "data_seed", "seed", "out_dir")
    settings = _parse_settings(options["settings"])
    cfg = _experiment_config(options)
    write_bench_outputs(options["out_dir"], cfg, settings)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "fit": _cmd_fit, "bench": _cmd_bench}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"swarmfit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
