import contextlib
import io
import json
import math
import os
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


def test_import_loads_no_scipy():
    src = str(Path(swarmfit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, swarmfit, swarmfit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
        with pytest.raises(ValueError):
            _parse_settings("one,two")
        with pytest.raises(ValueError):
            _parse_settings("0,9")
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
        ],
    )
    def test_out_of_range_input_rejected(self, tmp_path, capsys, rows, flags, diagnostic):
        data = tmp_path / "data.csv"
        data.write_text("t,y\n" + "\n".join(rows) + "\n")
        argv = ["fit", "--data", data, "--topology", "gbest", "--out", tmp_path / "f.json"]
        assert run(argv + TINY + flags) == 1
        assert capsys.readouterr().err.startswith(f"swarmfit: error: {diagnostic}")

    def test_huge_pseudotime_span_fits_without_warnings(self, tmp_path):
        # k*(t - t0) overflows to inf on this span before the exp clamp maps
        # it into range, which used to print a numpy RuntimeWarning
        data = tmp_path / "data.csv"
        data.write_text("t,y\n0,1\n1e308,5\n0.5,3\n")
        argv = ["fit", "--data", data, "--topology", "gbest", "--out", tmp_path / "f.json",
                "--restarts", "2", "--iters", "20"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 0

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
        code = run(["bench", "--settings", "1,9", "--data-seed", 1, "--seed", 1,
                    "--out-dir", tmp_path / "b"])
        assert code == 1
        assert "error" in capsys.readouterr().err


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
