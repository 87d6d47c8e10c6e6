"""Command-line interface: simulate, fit, bench.

Each command is declared once, in ``_COMMANDS``: its help, its options (key
-> type and help) and the keys it requires.  The parser, the type check of
``--config`` values, the unknown-key check and the required-option check all
read that table.  An option's flag is its key with ``-`` for ``_``, and
every flag may also be supplied through ``--config <path.json>`` (keys are
the flag names, hyphens or underscores; ``null`` leaves a key unset);
explicit flags override the file.  Tuning options left unset keep the
library defaults of ``SwarmConfig`` and ``ExperimentConfig``.  Exits 0 on
success and 1 with a diagnostic on validation failure, including a config
value of the wrong JSON type.
"""

from __future__ import annotations

import argparse
import json
import re
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

# Option key -> (type, help), shared by fit and bench.
_TUNING = {
    "w": (float, "inertia weight"),
    "c1": (float, "cognitive coefficient"),
    "c2": (float, "social coefficient"),
    "particles": (int, "swarm size"),
    "iters": (int, "iterations per restart"),
    "m": (int, "neighborhood size (lbest)"),
    "restarts": (int, "independent restarts"),
    "k_min": (float, "lower bound on activation strength"),
    "k_max": (float, "upper bound on activation strength"),
    "phi_max": (int, "upper bound on dispersion, in [1, 2**20]: up to 2**20 the "
                     "likelihood is accurate to about 1e-9 relative"),
}
# Command -> (help, {option key: (type, help)}, required keys).
_COMMANDS = {
    "simulate": ("generate one synthetic dataset", {
        "setting": (int, "scenario id, 1..6"),
        "seed": (int, "dataset seed (u64)"),
        "out": (str, "output CSV path"),
    }, ("setting", "seed", "out")),
    "fit": ("multi-restart fit of one dataset", {
        "data": (str, "input t,y CSV path"),
        "topology": (str, None),
        **_TUNING,
        "seed": (int, "master seed for restart derivation"),
        "out": (str, "output JSON path"),
    }, ("data", "topology", "out")),
    "bench": ("full benchmark over built-in settings", {
        "settings": (str, "comma-separated ids or 'all'"),
        "data_seed": (int, "dataset seed (u64)"),
        "seed": (int, "master seed for restart derivation"),
        "out_dir": (str, "output directory"),
        **_TUNING,
    }, ("settings", "data_seed", "seed", "out_dir")),
}
# A negative number that argparse, which knows only -12 and -.5, would read
# as a flag; main joins it to the flag before it as --flag=value.
_NEGATIVE_NUMBER = r"(?i)-(\d|\.\d|inf|nan)"
# Option key -> allowed values; a list, not a Topology type, keeps argparse's usage error.
_CHOICES = {"topology": [t.value for t in Topology]}
# Config class -> {option key: the field of that class it sets}; k_min and
# k_max set ExperimentConfig.k_bounds together.
_FIELDS = {
    SwarmConfig: {"w": "w", "c1": "c1", "c2": "c2", "particles": "n_particles",
                  "iters": "n_iterations", "m": "m_neighbors", "topology": "topology"},
    ExperimentConfig: {"restarts": "restarts", "phi_max": "phi_max",
                       "seed": "master_seed", "data_seed": "data_seed"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmfit",
        description="PSO fitting of the sigmoidal negative-binomial pseudotime model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key, (kind, option_help) in options.items():
            p.add_argument("--" + key.replace("_", "-"), type=kind, choices=_CHOICES.get(key),
                           help=option_help)
        p.add_argument("--config", help="JSON file supplying any flag")
    return parser


# Option type -> the JSON value types it accepts; a JSON boolean is never a number.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _coerce(source: str, key: str, value, kind):
    """Convert a config-file value to its option type, or raise ValueError naming the key."""
    if isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool):
        try:
            return kind(value)
        except OverflowError:
            pass
    raise ValueError(f"{source}: config key {key!r} must be {kind.__name__}, got {value!r}")


def _options(args: argparse.Namespace) -> dict:
    """The command's options from the config file and explicit flags (flags win);
    ValueError for an unknown or mistyped config key or a missing required option."""
    _, options, required = _COMMANDS[args.command]
    merged: dict = {}
    if args.config is not None:
        raw = json.loads(Path(args.config).read_text())
        if not isinstance(raw, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        for key, value in raw.items():
            norm = key.replace("-", "_")
            if norm not in options:
                raise ValueError(f"{args.config}: unknown config key {key!r}")
            if value is not None:  # null leaves the key unset
                merged[norm] = _coerce(args.config, norm, value, options[norm][0])
                choices = _CHOICES.get(norm)
                if choices and merged[norm] not in choices:
                    raise ValueError(f"{args.config}: config key {norm!r} must be one of "
                                     f"{', '.join(choices)}, got {value!r}")
    for key in options:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    missing = [k for k in required if k not in merged]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ValueError(f"missing required option(s): {flags}")
    return merged


def _experiment_config(options: dict) -> ExperimentConfig:
    """Config from the options that are set; the others keep the library defaults."""
    fields = {cls: {name: options[key] for key, name in keys.items() if key in options}
              for cls, keys in _FIELDS.items()}
    if "k_min" in options or "k_max" in options:
        k_min, k_max = DEFAULT_K_BOUNDS
        fields[ExperimentConfig]["k_bounds"] = (
            options.get("k_min", k_min), options.get("k_max", k_max)
        )
    return ExperimentConfig(swarm=SwarmConfig(**fields[SwarmConfig]), **fields[ExperimentConfig])


def _parse_settings(raw: str) -> list[int]:
    if raw.strip().lower() == "all":
        return [1, 2, 3, 4, 5, 6]
    try:
        ids = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"cannot parse settings list {raw!r}") from None
    if not ids:
        raise ValueError("settings list is empty")
    return list(dict.fromkeys(ids))


def _cmd_simulate(options: dict) -> int:
    setting = get_setting(options["setting"])
    data = generate_dataset(setting, options["seed"])
    save_dataset(data, options["out"])
    return 0


def _cmd_fit(options: dict) -> int:
    cfg = _experiment_config(options)
    out = Path(options["out"])
    if out.is_dir() or not out.parent.is_dir():
        raise ValueError(f"--out must name a file in an existing directory, got {out}")
    data = load_dataset(options["data"])
    summary = run_restarts(data, cfg, cfg.swarm.topology)
    doc = {"config": config_to_dict(cfg), "summary": summary_to_dict(summary)}
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_bench(options: dict) -> int:
    settings = _parse_settings(options["settings"])
    cfg = _experiment_config(options)
    write_bench_outputs(options["out_dir"], cfg, settings)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        flag = argv[i - 1]
        if flag.startswith("--") and flag != "--help" and re.match(_NEGATIVE_NUMBER, argv[i]):
            argv[i - 1 : i + 1] = [f"{flag}={argv[i]}"]
    args = build_parser().parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "fit": _cmd_fit, "bench": _cmd_bench}
    try:
        return handlers[args.command](_options(args))
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"swarmfit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
