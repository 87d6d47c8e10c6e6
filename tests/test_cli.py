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
from swarmfit.model import load_dataset

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
    # optimize validates the config again; that check must not warn again
    data = tmp_path / "data.csv"
    data.write_text("t,y\n0.1,1\n0.5,5\n0.9,3\n")
    proc = run_python("-m", "swarmfit.cli", "fit", "--data", data, "--topology", "gbest",
                      "--out", tmp_path / "f.json", "--w", "2.5", "--restarts", "2",
                      "--iters", "2", "--particles", "2", "--m", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("w=2.5 is outside the usual [0, 2] range") == 1, proc.stderr


# The CLI's surface, (command, flag, value type), written out apart from the
# CLI's own option table.  "settings" is a list of ids: a string or a JSON list.
_TUNING_SURFACE = [
    ("--w", float), ("--c1", float), ("--c2", float), ("--particles", int),
    ("--iters", int), ("--m", int), ("--restarts", int), ("--k-min", float),
    ("--k-max", float), ("--phi-max", int),
]
SURFACE = [
    *[("simulate", f, t) for f, t in [("--setting", int), ("--seed", int), ("--out", str)]],
    *[("fit", f, t) for f, t in [("--data", str), ("--topology", str), *_TUNING_SURFACE,
                                  ("--seed", int), ("--out", str)]],
    *[("bench", f, t) for f, t in [("--settings", "settings"), ("--data-seed", int),
                                    ("--seed", int), ("--out-dir", str), *_TUNING_SURFACE]],
]
# JSON values of the wrong type for each value type: a bool, a list, an object,
# a string for a number, a float for an int and a number for a string.
WRONG_JSON = {
    int: [True, [1], {"a": 1}, "1", 1.5],
    float: [False, [1.5], {"a": 1.5}, "1.5"],
    str: [True, ["x"], {"a": "x"}, 1, 1.5],
    "settings": [True, [True], ["4"], {"a": 4}, 4, 4.5],
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
        ("--phi-max", ("phi_max", [0, 2**53 + 1])), ("--seed", ("master_seed", [-1, 2**64])),
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

    def test_json_list(self):
        assert _parse_settings([1, 5]) == [1, 5]

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
            (["0.1,1", "0.5,5"], [f"--phi-max={10**308}"], "phi_max must be at most 2**53"),
            (["0.1,1", "0.5,5"], [f"--phi-max={10**400}"], "phi_max must be at most 2**53"),
            (["0.1,1", "0.5,5"], [{"phi_max": 10**308}], "phi_max must be at most 2**53"),
            (["0.1,1", "0.5,5"], [{"phi_max": 10**400}], "phi_max must be at most 2**53"),
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
        assert capsys.readouterr().err.startswith(f"swarmfit: error: {diagnostic}")

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


class TestBench:
    @pytest.mark.parametrize(
        "key, named",
        [("w", "w"), ("c1", "c1"), ("c2", "c2"), ("k_min", "k_bounds"), ("k_max", "k_bounds")],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_non_finite_float_rejected(self, tmp_path, capsys, key, named, value, via):
        argv = ["bench", "--settings", "4", "--data-seed", 1, "--seed", 2,
                "--restarts", 1, "--out-dir", tmp_path / "b"]
        if via == "flag":
            argv.append(f"--{key.replace('_', '-')}={value}")
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
            argv = ["fit", "--data", tmp / "data.csv", "--topology", "lbest",
                    "--out", tmp / "f.json"]
        else:
            argv = ["bench", "--settings", 4, "--data-seed", 1, "--seed", 1,
                    "--out-dir", tmp / "b"]
        if via:
            (tmp / "cfg.json").write_text(json.dumps({"k_min": k_min, "k_max": k_max}))
            argv += ["--config", tmp / "cfg.json"]
        else:
            argv += [f"--k-min={k_min!r}", f"--k-max={k_max!r}"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv + TINY)
    assert code == 1
    assert err.getvalue() == "swarmfit: error: k_bounds must satisfy lower < upper\n"


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
GOOD_TIMES = st.one_of(st.floats(0.0, 1.0), st.sampled_from([1e308, -1e308]))
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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=csv_rows())
def test_any_csv_runs_or_exits_1_with_diagnostic(rows):
    """A t,y CSV either fits or exits 1 with a diagnostic, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        data.write_text("t,y\n" + "".join(f"{t!r},{y!r}\n" for t, y in rows))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["fit", "--data", data, "--topology", "gbest",
                        "--out", Path(tmp) / "f.json"] + TINY)
    assert code == 0 or (code == 1 and "swarmfit: error: " in err.getvalue()), err.getvalue()
