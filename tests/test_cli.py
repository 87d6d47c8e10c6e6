import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swarmfit
from swarmfit.bench import ExperimentConfig, config_to_dict
from swarmfit.cli import _parse_settings, main
from swarmfit.model import MAX_PHI, load_dataset

FAST = ["--restarts", "3", "--iters", "10", "--particles", "5", "--m", "3"]
TINY = ["--restarts", "1", "--iters", "1", "--particles", "2", "--m", "1"]


def run(argv):
    return main([str(a) for a in argv])


def run_python(*args):
    """A fresh interpreter that imports this swarmfit, with the default warning filters."""
    src = str(Path(swarmfit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONWARNINGS": "default",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=60
    )


def test_import_loads_no_scipy():
    code = ("import sys, swarmfit, swarmfit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unusual_coefficient_warns_once_per_run(tmp_path):
    # each restart derives its config with dataclasses.replace, which checks it
    # again; those checks must not warn again
    data = tmp_path / "data.csv"
    data.write_text("t,y\n0.1,1\n0.5,5\n0.9,3\n")
    proc = run_python("-m", "swarmfit.cli", "fit", "--data", data, "--topology", "gbest",
                      "--out", tmp_path / "f.json", "--w", "2.5", "--restarts", "2",
                      "--iters", "2", "--particles", "2", "--m", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("w=2.5 is outside the usual [0, 2] range") == 1, proc.stderr


# The CLI's surface, (command, flag, value type), written out apart from the
# CLI's own option table.
_TUNING_SURFACE = [
    ("--w", float), ("--c1", float), ("--c2", float), ("--particles", int),
    ("--iters", int), ("--m", int), ("--restarts", int), ("--k-min", float),
    ("--k-max", float), ("--phi-max", int),
]
SURFACE = [
    *[("simulate", f, t) for f, t in [("--setting", int), ("--seed", int), ("--out", str)]],
    *[("fit", f, t) for f, t in [("--data", str), ("--topology", str), *_TUNING_SURFACE,
                                  ("--seed", int), ("--out", str)]],
    *[("bench", f, t) for f, t in [("--settings", str), ("--data-seed", int),
                                    ("--seed", int), ("--out-dir", str), *_TUNING_SURFACE]],
]
# JSON values of the wrong type for each value type: a bool, a list, an object,
# a string for a number, a float for an int and a number for a string.
WRONG_JSON = {
    int: [True, [1], {"a": 1}, "1", 1.5],
    float: [False, [1.5], {"a": 1.5}, "1.5"],
    str: [True, ["x"], {"a": "x"}, 1, 1.5],
}

# Integer options, (command, flag) -> (the name a diagnostic gives, values one
# past each end of the range).  The name is the option's key or the config
# field it sets; surface_argv runs 5 particles, so m = 6 is one past the swarm.
OUT_OF_RANGE = {
    ("simulate", "--setting"): ("setting", [0, 7]),
    ("simulate", "--seed"): ("seed", [-1, 2**64]),
    **{(cmd, flag): entry for cmd in ("fit", "bench") for flag, entry in [
        ("--particles", ("n_particles", [0])), ("--iters", ("n_iterations", [0])),
        ("--m", ("m_neighbors", [0, 6])), ("--restarts", ("restarts", [0])),
        ("--phi-max", ("phi_max", [0, MAX_PHI + 1])), ("--seed", ("master_seed", [-1, 2**64])),
    ]},
    ("bench", "--data-seed"): ("data_seed", [-1, 2**64]),
}


def surface_argv(command, skip, tmp_path, out):
    """A valid command line without the flag skip; small swarms; output under out."""
    values = {
        "simulate": {"--setting": 1, "--seed": 1, "--out": out / "data.csv"},
        "fit": {"--data": tmp_path / "data.csv", "--topology": "lbest", "--out": out / "f.json",
                "--restarts": 1, "--iters": 1, "--particles": 5, "--m": 1},
        "bench": {"--settings": 4, "--data-seed": 1, "--seed": 1, "--out-dir": out,
                  "--restarts": 1, "--iters": 1, "--particles": 5, "--m": 1},
    }[command]
    if command == "fit":
        (tmp_path / "data.csv").write_text("t,y\n0.1,1\n0.5,5\n0.9,3\n")
    return [command] + [a for f, v in values.items() if f != skip for a in (f, v)]


@pytest.mark.parametrize("command", ["simulate", "fit", "bench"])
def test_help_lists_exactly_the_surface_flags(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))
    flags = {flag for cmd, flag, _ in SURFACE if cmd == command}
    assert listed == flags | {"--config", "--help"}


@pytest.mark.parametrize("command, flag, kind", SURFACE)
def test_config_value_of_wrong_type_exits_1_naming_key(tmp_path, capsys, command, flag, kind):
    key = flag[2:].replace("-", "_")
    (tmp_path / "out").mkdir()  # so that only the value can make the run fail
    argv = surface_argv(command, flag, tmp_path, tmp_path / "out")
    for value in WRONG_JSON[kind]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run(argv + ["--config", cfg]) == 1, value
        err = capsys.readouterr().err
        assert err.startswith("swarmfit: error:") and key in err, (value, err)


def test_out_of_range_table_covers_every_integer_option():
    assert set(OUT_OF_RANGE) == {(cmd, flag) for cmd, flag, kind in SURFACE if kind is int}


@pytest.mark.parametrize("command, flag", sorted(OUT_OF_RANGE))
@pytest.mark.parametrize("via", ["flag", "config"])
def test_out_of_range_integer_exits_1_naming_option(tmp_path, capsys, command, flag, via):
    key = flag[2:].replace("-", "_")
    name, values = OUT_OF_RANGE[command, flag]
    (tmp_path / "out").mkdir()  # so that only the value can make the run fail
    argv = surface_argv(command, flag, tmp_path, tmp_path / "out")
    for value in values:
        if via == "flag":
            extra = [f"{flag}={value}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            extra = ["--config", cfg]
        assert run(argv + extra) == 1, value
        err = capsys.readouterr().err
        assert err.startswith("swarmfit: error:"), (value, err)
        assert re.search(rf"\b({key}|{name})\b", err), (value, err)


@pytest.mark.parametrize("command, flag, kind", SURFACE)
def test_config_null_acts_as_unset(tmp_path, capsys, command, flag, kind):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:].replace("-", "_"): None}))
    outcomes = []
    for out, extra in [(tmp_path / "a", ["--config", cfg]), (tmp_path / "b", [])]:
        out.mkdir()
        code = run(surface_argv(command, flag, tmp_path, out) + extra)
        files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        outcomes.append((code, capsys.readouterr().err, files))
    assert outcomes[0] == outcomes[1]


class TestParseSettings:
    def test_all(self):
        assert _parse_settings("all") == [1, 2, 3, 4, 5, 6]

    def test_list(self):
        assert _parse_settings("2,4") == [2, 4]

    def test_duplicates_collapsed(self):
        assert _parse_settings("2,2,3") == [2, 3]

    def test_rejects_garbage(self):
        # unknown ids such as "0,9" parse; bench rejects them (TestBench)
        with pytest.raises(ValueError):
            _parse_settings("one,two")
        with pytest.raises(ValueError):
            _parse_settings("")


class TestSimulate:
    def test_writes_dataset(self, tmp_path):
        out = tmp_path / "data.csv"
        assert run(["simulate", "--setting", 4, "--seed", 1, "--out", out]) == 0
        data = load_dataset(out)
        assert len(data) == 100

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--setting", 2, "--seed", 9, "--out", a])
        run(["simulate", "--setting", 2, "--seed", 9, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_setting(self, tmp_path, capsys):
        code = run(["simulate", "--setting", 9, "--seed", 1, "--out", tmp_path / "x.csv"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag(self, tmp_path, capsys):
        code = run(["simulate", "--setting", 1, "--out", tmp_path / "x.csv"])
        assert code == 1
        assert "--seed" in capsys.readouterr().err


class TestFit:
    def test_end_to_end(self, tmp_path):
        data = tmp_path / "data.csv"
        out = tmp_path / "fit.json"
        run(["simulate", "--setting", 4, "--seed", 1, "--out", data])
        code = run(
            ["fit", "--data", data, "--topology", "gbest", "--out", out, "--seed", 3]
            + FAST
        )
        assert code == 0
        doc = json.loads(out.read_text())
        values = [r["value"] for r in doc["summary"]["per_restart"]]
        assert len(values) == 3
        assert doc["summary"]["best"] == min(values)
        assert doc["config"]["swarm"]["n_iterations"] == 10

    def test_lbest_topology(self, tmp_path):
        data = tmp_path / "data.csv"
        out = tmp_path / "fit.json"
        run(["simulate", "--setting", 4, "--seed", 1, "--out", data])
        code = run(["fit", "--data", data, "--topology", "lbest", "--out", out] + FAST)
        assert code == 0
        assert json.loads(out.read_text())["summary"]["topology"] == "lbest"

    def test_bad_topology_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["fit", "--data", tmp_path / "d.csv", "--topology", "bogus",
                 "--out", tmp_path / "f.json"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: swarmfit fit [-h]")
        assert "invalid choice: 'bogus' (choose from 'gbest', 'lbest')" in err

    def test_bad_topology_in_config_names_the_key(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t,y\n0.1,1\n0.5,5\n0.9,3\n")
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps({"topology": "bogus"}))
        assert run(["fit", "--data", data, "--out", tmp_path / "f.json", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            f"swarmfit: error: {cfg}: config key 'topology' must be one of gbest, lbest, "
            "got 'bogus'\n"
        )

    def test_missing_data_file(self, tmp_path, capsys):
        code = run(
            ["fit", "--data", tmp_path / "nope.csv", "--topology", "gbest",
             "--out", tmp_path / "f.json"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_domain_knobs_forwarded(self, tmp_path):
        data = tmp_path / "data.csv"
        out = tmp_path / "fit.json"
        run(["simulate", "--setting", 4, "--seed", 1, "--out", data])
        run(
            ["fit", "--data", data, "--topology", "gbest", "--out", out,
             "--k-min", "-3", "--k-max", "3", "--phi-max", "30"] + FAST
        )
        doc = json.loads(out.read_text())
        assert doc["config"]["k_bounds"] == [-3.0, 3.0]
        assert doc["config"]["phi_max"] == 30
        assert abs(doc["summary"]["best_params"]["k_g"]) <= 3.0
        assert doc["summary"]["best_params"]["phi_g"] <= 30

    @pytest.mark.parametrize(
        "rows, flags, diagnostic",
        [
            # past 2**63 the count used to wrap to -2**63 and the fit exited 0
            (["0.1,1", f"0.5,{2**63}"], [], "counts must be at most 2**53"),
            # past 2**64 the counts became an object array np.isfinite rejects
            (["0.1,1", f"0.5,{2**64}"], [], "counts must be at most 2**53"),
            # a span of 2e308 is inf, and drawing the swarm raised OverflowError
            (["-1e308,1", "1e308,5"], [], "domain span"),
            (["0.1,1", "0.5,5"], ["--k-min=-1e308", "--k-max=1e308"], "domain span"),
            # a huge phi_max ended in an OverflowError traceback from the phi cache
            (["0.1,1", "0.5,5"], [f"--phi-max={10**308}"], "phi_max must be at most 2**20"),
            (["0.1,1", "0.5,5"], [f"--phi-max={10**400}"], "phi_max must be at most 2**20"),
            (["0.1,1", "0.5,5"], [{"phi_max": 10**308}], "phi_max must be at most 2**20"),
            (["0.1,1", "0.5,5"], [{"phi_max": 10**400}], "phi_max must be at most 2**20"),
            # a negative number in exponent form after a space was read as a flag
            (["0.1,1", "0.5,5"], ["--k-min", "-1e308", "--k-max", "1e308"], "domain span"),
            # past 2**20 the likelihood loses accuracy; at 2**53 the NLL fell below 0
            (["0.1,1", "0.5,5"], ["--phi-max", MAX_PHI + 1], "phi_max must be at most 2**20"),
            (["0.1,1", "0.5,5"], ["--phi-max", 2**53], "phi_max must be at most 2**20"),
        ],
    )
    def test_out_of_range_input_rejected(self, tmp_path, capsys, rows, flags, diagnostic):
        data = tmp_path / "data.csv"
        data.write_text("t,y\n" + "\n".join(rows) + "\n")
        argv = ["fit", "--data", data, "--topology", "gbest", "--out", tmp_path / "f.json"]
        if flags and isinstance(flags[0], dict):  # given in --config
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(flags[0]))
            flags = ["--config", cfg]
        assert run(argv + TINY + flags) == 1
        assert not (tmp_path / "f.json").exists()
        # a count the dataset rejects is reported under the file's name
        source = f"{data}: " if diagnostic.startswith("counts") else ""
        assert capsys.readouterr().err.startswith(f"swarmfit: error: {source}{diagnostic}")

    @pytest.mark.parametrize(
        "rows, diagnostic",
        [
            (["0.1,1", "0.5,5.0", "0.9,3"],
             "line 3: invalid literal for int() with base 10: '5.0'"),
            (["0.1,1", "abc,5"], "line 3: could not convert string to float: 'abc'"),
            (["0.1,1", "0.5"], "line 3: malformed row ['0.5']"),
            (["0.1,1", "0.5," + "1" * 200_000],
             "line 3: field larger than field limit (131072)"),
            # int() and float() would read 1_0 as 10
            (["0.1,1_0", "0.5,5", "0.9,3"],
             "line 2: fields must be plain numbers, got row ['0.1', '1_0']"),
            (["0.1,1", "0_5,5", "0.9,3"],
             "line 3: fields must be plain numbers, got row ['0_5', '5']"),
            # and a non-ASCII digit such as ARABIC-INDIC DIGIT FIVE as 5
            (["0.1,1", "0.5,\u0665", "0.9,3"],
             "line 3: fields must be plain numbers, got row ['0.5', '\u0665']"),
        ],
    )
    def test_bad_row_named_by_file_and_line(self, tmp_path, capsys, rows, diagnostic):
        data = tmp_path / "data.csv"
        data.write_text("t,y\n" + "\n".join(rows) + "\n")
        argv = ["fit", "--data", data, "--topology", "gbest", "--out", tmp_path / "f.json"]
        assert run(argv + TINY) == 1
        assert capsys.readouterr().err == f"swarmfit: error: {data}: {diagnostic}\n"

    def test_gbest_ignores_m_past_the_swarm(self, tmp_path):
        # only lbest uses --m, so a gbest swarm smaller than the default m = 5 runs
        data = tmp_path / "data.csv"
        data.write_text("t,y\n0.1,1\n0.5,5\n0.9,3\n")
        argv = ["fit", "--data", data, "--topology", "gbest", "--particles", 3,
                "--restarts", 2, "--iters", 5, "--out", tmp_path / "f.json"]
        assert run(argv) == 0

    def test_lbest_m_past_the_swarm_rejected_before_reading_data(self, tmp_path, capsys):
        argv = ["fit", "--data", tmp_path / "missing.csv", "--topology", "lbest",
                "--particles", 3, "--out", tmp_path / "f.json"]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            "swarmfit: error: lbest needs m_neighbors <= n_particles, got 5\n"
        )

    def test_huge_pseudotime_span_fits_without_warnings(self, tmp_path):
        # k*(t - t0) overflows to inf on this span, where tau is floored; the
        # overflow used to print a numpy RuntimeWarning
        data = tmp_path / "data.csv"
        data.write_text("t,y\n0,1\n1e308,5\n0.5,3\n")
        argv = ["fit", "--data", data, "--topology", "gbest", "--out", tmp_path / "f.json",
                "--restarts", "2", "--iters", "20"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 0

    def test_huge_span_lbest_swarm_fits_without_warnings(self, tmp_path):
        # on this span the swarm's velocity, move and lbest distances overflow
        # too, which used to print five numpy RuntimeWarnings
        data = tmp_path / "data.csv"
        data.write_text("t,y\n0,1\n1e308,5\n0.5,3\n")
        argv = ["fit", "--data", data, "--topology", "lbest", "--out", tmp_path / "f.json",
                "--w", 2, "--c1", 2, "--c2", 2, "--particles", 20, "--m", 3,
                "--restarts", 20, "--iters", 50]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 0

    @pytest.mark.parametrize("out", ["nodir/f.json", "."])
    def test_bad_out_rejected_before_any_restart(self, tmp_path, capsys, monkeypatch, out):
        calls = []
        optimize = swarmfit.bench.optimize
        monkeypatch.setattr(swarmfit.bench, "optimize",
                            lambda *args: calls.append(1) or optimize(*args))
        data = tmp_path / "data.csv"
        data.write_text("t,y\n0.1,1\n0.5,5\n0.9,3\n")
        out = tmp_path / out
        before = sorted(tmp_path.rglob("*"))
        argv = ["fit", "--data", data, "--topology", "gbest", "--restarts", 3, "--iters", 5,
                "--out", out]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("swarmfit: error:") and str(out) in err, err
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == before

    def test_unset_tuning_flags_keep_library_defaults(self, tmp_path):
        data = tmp_path / "data.csv"
        out = tmp_path / "fit.json"
        run(["simulate", "--setting", 4, "--seed", 1, "--out", data])
        assert run(["fit", "--data", data, "--topology", "gbest", "--out", out]) == 0
        assert json.loads(out.read_text())["config"] == config_to_dict(ExperimentConfig())


# results.csv and params.csv of `bench --settings all --data-seed 1 --seed 2
# --restarts 2 --iters 10` as first recorded: a change to either is a change
# of results
PINNED_RESULTS = """\
setting,topology,best,mean,std,median
1,gbest,962.91,967.65,6.70,967.65
1,lbest,943.55,954.90,16.05,954.90
2,gbest,952.58,977.19,34.80,977.19
2,lbest,961.98,982.48,28.99,982.48
3,gbest,486.16,489.53,4.78,489.53
3,lbest,483.63,486.05,3.42,486.05
4,gbest,237.48,238.11,0.88,238.11
4,lbest,234.50,235.12,0.87,235.12
5,gbest,239.75,241.79,2.88,241.79
5,lbest,240.23,240.51,0.40,240.51
6,gbest,127.34,129.91,3.63,129.91
6,lbest,127.91,129.28,1.94,129.28
"""
PINNED_PARAMS = """\
setting,topology,k_g,t_g,mu_g,phi_g
1,gbest,8.5410,0.2960,4.6037,121
1,lbest,8.0921,0.3355,5.0542,102
2,gbest,-13.5261,0.8673,3.5175,116
2,lbest,-15.3253,0.8696,3.3479,62
3,gbest,3.9475,0.3844,0.6370,67
3,lbest,1.7220,0.9990,1.1826,52
4,gbest,7.5106,0.4157,6.2961,161
4,lbest,8.2820,0.3441,5.4039,129
5,gbest,-12.1880,0.7934,4.5477,170
5,lbest,-11.0341,0.8221,4.7852,145
6,gbest,5.1567,0.0261,0.4920,1
6,lbest,13.9723,0.0058,0.4351,1
"""


class TestBench:
    @pytest.mark.parametrize(
        "key, named",
        [("w", "w"), ("c1", "c1"), ("c2", "c2"), ("k_min", "k_bounds"), ("k_max", "k_bounds")],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("via", ["flag", "config", "spaced"])
    def test_non_finite_float_rejected(self, tmp_path, capsys, key, named, value, via):
        argv = ["bench", "--settings", "4", "--data-seed", 1, "--seed", 2,
                "--restarts", 1, "--out-dir", tmp_path / "b"]
        if via == "flag":
            argv.append(f"--{key.replace('_', '-')}={value}")
        elif via == "spaced":  # -inf used to be read as a flag
            argv += [f"--{key.replace('_', '-')}", value]
        else:
            # written as NaN / Infinity, which json.loads reads as floats
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: float(value)}))
            argv += ["--config", cfg]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"swarmfit: error: {named} must be finite")

    def test_two_settings(self, tmp_path):
        out = tmp_path / "bench"
        code = run(
            ["bench", "--settings", "4,5", "--data-seed", 2, "--seed", 3,
             "--out-dir", out] + FAST
        )
        assert code == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert rows[0] == "setting,topology,best,mean,std,median"
        assert [r.split(",")[:2] for r in rows[1:]] == [
            ["4", "gbest"], ["4", "lbest"], ["5", "gbest"], ["5", "lbest"],
        ]
        assert (out / "params.csv").exists()
        assert (out / "curve_5_lbest.csv").exists()
        doc = json.loads((out / "run.json").read_text())
        assert doc["config"]["master_seed"] == 3
        assert doc["config"]["data_seed"] == 2

    def test_shared_dataset_between_topologies(self, tmp_path):
        out = tmp_path / "bench"
        run(["bench", "--settings", "4", "--data-seed", 8, "--seed", 1,
             "--out-dir", out] + FAST)
        doc = json.loads((out / "run.json").read_text())
        # both rows were fit on the single emitted dataset file
        data = load_dataset(out / "data_4.csv")
        assert len(data) == 100
        assert len(doc["summaries"]) == 2

    def test_m_past_the_swarm_rejected_before_any_file(self, tmp_path, capsys):
        # bench runs lbest on every setting, so its m is checked against the swarm
        out = tmp_path / "b"
        argv = ["bench", "--settings", 4, "--data-seed", 1, "--seed", 1,
                "--particles", 3, "--out-dir", out]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            "swarmfit: error: lbest needs m_neighbors <= n_particles, got 5\n"
        )
        assert not out.exists()

    def test_small_grid_tables_pinned(self, tmp_path):
        # the byte-identity gate on the bench CSVs, at a size tier-1 can afford;
        # run.json is not pinned: the last bits of its floats follow the BLAS dot
        out = tmp_path / "bench"
        argv = ["bench", "--settings", "all", "--data-seed", 1, "--seed", 2,
                "--restarts", 2, "--iters", 10, "--out-dir", out]
        assert run(argv) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["results.csv", "params.csv", "run.json"]
            + [f"data_{s}.csv" for s in range(1, 7)]
            + [f"curve_{s}_{t}.csv" for s in range(1, 7) for t in ("gbest", "lbest")]
        )
        assert (out / "results.csv").read_text() == PINNED_RESULTS
        assert (out / "params.csv").read_text() == PINNED_PARAMS

    def test_bad_settings_list(self, tmp_path, capsys):
        for settings in ("1,9", "0,9"):
            code = run(["bench", "--settings", settings, "--data-seed", 1, "--seed", 1,
                        "--out-dir", tmp_path / "b"])
            assert code == 1
            assert "swarmfit: error: setting must be in 1..6" in capsys.readouterr().err
            assert not (tmp_path / "b").exists()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def empty_k_boxes(draw):
    """Finite (k_min, k_max) with k_min >= k_max."""
    a, b = draw(FINITE), draw(FINITE)
    return max(a, b), min(a, b)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(k_box=empty_k_boxes(), command=st.sampled_from(["fit", "bench"]), via=st.booleans())
def test_empty_k_box_exits_1(k_box, command, via):
    """k_min >= k_max, by flag or by --config, exits 1 naming the k bounds."""
    k_min, k_max = k_box
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if command == "fit":
            (tmp / "data.csv").write_text("t,y\n0.1,1\n0.5,5\n0.9,3\n")
            out = tmp / "f.json"
            argv = ["fit", "--data", tmp / "data.csv", "--topology", "lbest", "--out", out]
        else:
            # settings 4 and 5: the k box used to be checked only when the
            # first cell was fitted, after data_4.csv was written
            out = tmp / "b"
            argv = ["bench", "--settings", "4,5", "--data-seed", 1, "--seed", 1,
                    "--out-dir", out]
        if via:
            (tmp / "cfg.json").write_text(json.dumps({"k_min": k_min, "k_max": k_max}))
            argv += ["--config", tmp / "cfg.json"]
        else:
            argv += [f"--k-min={k_min!r}", f"--k-max={k_max!r}"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv + TINY)
        assert not out.exists()
    assert code == 1
    assert err.getvalue() == "swarmfit: error: k_bounds must satisfy lower < upper\n"


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["fit", "bench"]),
    key=st.sampled_from(["w", "c1", "c2"]),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
    via=st.booleans(),
    others=st.dictionaries(st.sampled_from(["w", "c1", "c2"]), st.floats(0.0, 2.0)),
)
def test_non_finite_coefficient_exits_1_naming_it(command, key, value, via, others):
    """A nan or +-inf --w, --c1 or --c2, by flag or by --config (JSON NaN and
    Infinity), exits 1 naming the coefficient, and writes nothing."""
    coefficients = {**others, key: value}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if command == "fit":
            (tmp / "data.csv").write_text("t,y\n0.1,1\n0.5,5\n0.9,3\n")
            out = tmp / "f.json"
            argv = ["fit", "--data", tmp / "data.csv", "--topology", "gbest", "--out", out]
        else:
            out = tmp / "b"
            argv = ["bench", "--settings", 4, "--data-seed", 1, "--seed", 1, "--out-dir", out]
        if via:
            (tmp / "cfg.json").write_text(json.dumps(coefficients))
            argv += ["--config", tmp / "cfg.json"]
        else:
            argv += [f"--{k}={v!r}" for k, v in coefficients.items()]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv + TINY)
        assert not out.exists()
    assert code == 1
    assert err.getvalue() == f"swarmfit: error: {key} must be finite, got {value}\n"


class TestConfigFile:
    def test_supplies_missing_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"setting": 4, "seed": 1, "out": str(tmp_path / "d.csv")}))
        assert run(["simulate", "--config", cfg]) == 0
        assert (tmp_path / "d.csv").exists()

    def test_explicit_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "restarts": 2, "iters": 5, "particles": 4, "m": 2}))
        out = tmp_path / "bench"
        code = run(["bench", "--settings", "4", "--data-seed", 1, "--seed", 7,
                    "--out-dir", out, "--config", cfg])
        assert code == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["config"]["master_seed"] == 7
        assert doc["config"]["restarts"] == 2

    def test_hyphenated_keys_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data-seed": 4, "restarts": 2, "iters": 5,
                                   "particles": 4, "m": 2}))
        out = tmp_path / "bench"
        code = run(["bench", "--settings", "4", "--seed", 1, "--out-dir", out,
                    "--config", cfg])
        assert code == 0
        assert json.loads((out / "run.json").read_text())["config"]["data_seed"] == 4

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"setting": 4, "seed": 1, "out": "x.csv", "bogus": 1}))
        assert run(["simulate", "--config", cfg]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"settings": 4, "data_seed": 1, "seed": 1}, "settings"),
            ({"settings": "4", "data_seed": 1, "seed": 1, "out_dir": 7}, "out_dir"),
            ({"settings": "4", "data_seed": 1, "seed": 1, "restarts": [3]}, "restarts"),
            ({"settings": "4", "data_seed": 1, "seed": 1, "restarts": 2.9}, "restarts"),
            ({"settings": "4", "data_seed": 1, "seed": 1, "restarts": True}, "restarts"),
            ({"settings": "4", "data_seed": 1, "seed": 1, "restarts": "2"}, "restarts"),
            ({"settings": "4", "data_seed": 1, "seed": 1, "w": False}, "'w'"),
            ({"settings": [True], "data_seed": 1, "seed": 1}, "settings"),
            ({"settings": [4.5], "data_seed": 1, "seed": 1}, "settings"),
            ({"settings": [4, 5], "data_seed": 1, "seed": 1}, "settings"),
        ],
    )
    def test_wrong_json_type_rejected(self, tmp_path, capsys, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = ["bench", "--config", cfg]
        if "out_dir" not in doc:
            argv += ["--out-dir", tmp_path / "b"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("swarmfit: error:") and key in err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["simulate", "--config", cfg]) == 1
        assert "error" in capsys.readouterr().err


# cells a fit accepts, the box edges of the float range among them, and cells
# it must reject with a diagnostic
GOOD_TIMES = st.one_of(
    st.floats(0.0, 1.0), st.floats(-1e308, 1e308), st.sampled_from([1e308, -1e308])
)
GOOD_COUNTS = st.one_of(st.integers(0, 50), st.integers(2**53 - 2, 2**53))
BAD_TIMES = st.sampled_from([math.nan, math.inf, -math.inf])
BAD_COUNTS = st.one_of(
    st.integers(-(2**70), -1),
    st.integers(2**53 + 1, 2**65),
    st.floats(allow_nan=True, allow_infinity=True).filter(lambda v: not v.is_integer()),
)


@st.composite
def csv_rows(draw):
    """1-6 (t, y) rows; in about half the files one cell is bad."""
    rows = draw(st.lists(st.tuples(GOOD_TIMES, GOOD_COUNTS), min_size=1, max_size=6))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        t, y = rows[i]
        rows[i] = (draw(BAD_TIMES), y) if draw(st.booleans()) else (t, draw(BAD_COUNTS))
    return rows


# k boxes out to +-1e300, where the swarm's velocities, moves and lbest
# distances overflow
K_BOUNDS = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([-1e300, 1e300]))
COEFFICIENTS = st.one_of(st.just(2.0), st.floats(0.0, 2.0))
# the whole accepted phi box, its ends and one past its top
PHI_MAX = st.one_of(st.integers(1, MAX_PHI), st.sampled_from([1, MAX_PHI, MAX_PHI + 1]))


@st.composite
def fit_flags(draw):
    """Topology, k box, phi box, coefficients and a small swarm: at most 5
    particles and at most 2 restarts and iterations.  Returns the flags and
    the --config document; the phi box is given in one or the other."""
    particles = draw(st.integers(1, 5))
    k_box = sorted(draw(st.lists(K_BOUNDS, min_size=2, max_size=2, unique=True)))
    if draw(st.integers(0, 9)) == 0:  # now and then a reversed box
        k_box.reverse()
    flags = {
        "--topology": draw(st.sampled_from(["gbest", "lbest"])),
        "--k-min": k_box[0], "--k-max": k_box[1],
        "--w": draw(COEFFICIENTS), "--c1": draw(COEFFICIENTS), "--c2": draw(COEFFICIENTS),
        "--particles": particles, "--m": draw(st.integers(1, particles)),
        "--restarts": draw(st.integers(1, 2)), "--iters": draw(st.integers(1, 2)),
    }
    phi_max, config = draw(PHI_MAX), {}
    if draw(st.booleans()):
        config["phi_max"] = phi_max
    else:
        flags["--phi-max"] = phi_max
    return [f"{flag}={value}" for flag, value in flags.items()], config


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=csv_rows(), flags=fit_flags())
def test_any_csv_runs_or_exits_1_with_diagnostic(rows, flags):
    """A t,y CSV, with t out to +-1e308, either fits with no numpy
    RuntimeWarning and NLLs >= 0 or exits 1 with a diagnostic, never a
    traceback, whatever the topology, the k and phi boxes and the swarm."""
    flags, config = flags
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        data.write_text("t,y\n" + "".join(f"{t!r},{y!r}\n" for t, y in rows))
        (Path(tmp) / "cfg.json").write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["fit", "--data", data, "--out", Path(tmp) / "f.json", *flags,
                        "--config", Path(tmp) / "cfg.json"])
        if code == 0:  # an NLL is never negative
            doc = json.loads((Path(tmp) / "f.json").read_text())
            assert min(r["value"] for r in doc["summary"]["per_restart"]) >= 0
    assert code == 0 or (code == 1 and "swarmfit: error: " in err.getvalue()), err.getvalue()
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
