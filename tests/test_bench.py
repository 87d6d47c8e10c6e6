import dataclasses
import json
import math
import re

import numpy as np
import pytest

import swarmfit.bench as bench
from swarmfit import SwarmConfig, generate_dataset, get_setting
from swarmfit.bench import (
    ExperimentConfig,
    RunSummary,
    aggregate_restarts,
    emit_fit_curve,
    emit_params_table,
    emit_results_table,
    mix64,
    run_restarts,
    summary_to_dict,
    write_bench_outputs,
)
from swarmfit.model import (
    MAX_PHI,
    Dataset,
    NbParams,
    build_domain,
    decode_position,
    load_dataset,
    make_objective,
)
from swarmfit.pso import BoxDomain, Topology

SMALL = ExperimentConfig(
    restarts=4,
    swarm=SwarmConfig(n_particles=5, m_neighbors=3, n_iterations=15),
    master_seed=11,
    data_seed=5,
)


def summary_fixture(setting_id, topology, best, mean, std, median, params=None):
    return RunSummary(
        setting_id=setting_id,
        topology=Topology(topology),
        best=best,
        mean=mean,
        std=std,
        median=median,
        best_params=params or NbParams(1.0, 0.5, 1.0, 1),
        per_restart=[],
    )


class TestMix64:
    # frozen outputs of the SplitMix64 finisher over master ^ r
    vectors = [
        ((0, 0), 0),
        ((0, 1), 6238072747940578789),
        ((1, 0), 6238072747940578789),
        ((42, 7), 13672846375540944515),
        ((2**64 - 1, 3), 7799763819819322391),
        ((123456789, 1), 5322217574935843946),
    ]

    @pytest.mark.parametrize("args,expected", vectors)
    def test_frozen_vectors(self, args, expected):
        assert mix64(*args) == expected

    def test_outputs_are_u64(self):
        for r in range(100):
            z = mix64(987654321, r)
            assert 0 <= z < 2**64

    def test_distinct_nearby_indices(self):
        seeds = {mix64(1, r) for r in range(1000)}
        assert len(seeds) == 1000


class TestAggregateRestarts:
    def test_hand_statistics(self):
        per_restart = [
            (3.0, np.array([1.0, 0.5, 2.0, 10.0])),
            (1.0, np.array([2.0, 0.4, 3.0, 17.2])),
            (2.0, np.array([3.0, 0.6, 4.0, 5.0])),
        ]
        s = aggregate_restarts(per_restart, Topology.GBEST, setting_id=1)
        assert s.best == 1.0
        assert s.mean == 2.0
        assert s.median == 2.0
        assert s.std == 1.0
        assert s.best_params == NbParams(2.0, 0.4, 3.0, 17)

    def test_single_restart_std_zero(self):
        s = aggregate_restarts(
            [(5.0, np.array([1.0, 0.5, 2.0, 3.0]))], Topology.LBEST
        )
        assert s.best == s.mean == s.median == 5.0
        assert s.std == 0.0

    def test_best_tie_goes_to_first_restart(self):
        per_restart = [
            (2.0, np.array([1.0, 0.1, 1.0, 1.0])),
            (2.0, np.array([2.0, 0.2, 2.0, 2.0])),
        ]
        s = aggregate_restarts(per_restart, Topology.GBEST)
        assert s.best_params.k_g == 1.0

    def test_sample_std_identity(self):
        rng = np.random.default_rng(3)
        values = rng.normal(10.0, 2.0, size=37)
        per_restart = [(float(v), np.array([1.0, 0.5, 1.0, 1.0])) for v in values]
        s = aggregate_restarts(per_restart, Topology.GBEST)
        lhs = s.std**2 * (len(values) - 1)
        rhs = float(np.sum((values - s.mean) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestRunRestarts:
    def test_deterministic(self):
        data = generate_dataset(get_setting(4), SMALL.data_seed)
        a = run_restarts(data, SMALL, Topology.GBEST, setting_id=4)
        b = run_restarts(data, SMALL, Topology.GBEST, setting_id=4)
        assert a.best == b.best and a.mean == b.mean and a.std == b.std
        for (va, pa), (vb, pb) in zip(a.per_restart, b.per_restart):
            assert va == vb and np.array_equal(pa, pb)

    def test_restart_streams_independent(self):
        data = generate_dataset(get_setting(4), SMALL.data_seed)
        short = run_restarts(data, SMALL, Topology.GBEST)
        from dataclasses import replace

        longer = run_restarts(data, replace(SMALL, restarts=7), Topology.GBEST)
        for (va, pa), (vb, pb) in zip(short.per_restart, longer.per_restart):
            assert va == vb and np.array_equal(pa, pb)

    def test_summary_invariants(self):
        data = generate_dataset(get_setting(4), SMALL.data_seed)
        s = run_restarts(data, SMALL, Topology.LBEST, setting_id=4)
        values = [v for v, _ in s.per_restart]
        assert s.best == min(values)
        assert s.best <= s.median <= max(values)
        assert len(values) == SMALL.restarts

    @pytest.mark.parametrize("topology", list(Topology))
    def test_row_path_equals_swarm_path(self, monkeypatch, topology):
        # a plain callable has no batched marker, so pso calls it once per
        # particle, as a traced benchmark run does; the results must not move
        cfg = ExperimentConfig(
            restarts=3,
            swarm=SwarmConfig(n_particles=40, m_neighbors=8, n_iterations=25),
            master_seed=7,
        )
        data = generate_dataset(get_setting(6), 2)
        swarm_path = run_restarts(data, cfg, topology)
        make_objective = bench.make_objective
        monkeypatch.setattr(
            bench, "make_objective", lambda d: (lambda f: lambda x: f(x))(make_objective(d))
        )
        row_path = run_restarts(data, cfg, topology)
        for (va, pa), (vb, pb) in zip(swarm_path.per_restart, row_path.per_restart, strict=True):
            assert va == vb and pa.tobytes() == pb.tobytes()

    def test_best_phi_stays_in_a_box_up_to_max_phi(self):
        # this swarm flies to the box's bounds; one gbest restart ends on the top phi bound
        phi_max = MAX_PHI
        cfg = ExperimentConfig(
            restarts=3,
            swarm=SwarmConfig(w=2.0, c1=2.0, c2=2.0, n_iterations=20),
            phi_max=phi_max,
        )
        data = generate_dataset(get_setting(1), 1)
        for topology in Topology:
            summary = run_restarts(data, cfg, topology)
            assert summary.best_params.phi_g <= phi_max
            for _, position in summary.per_restart:
                assert decode_position(position).phi_g <= phi_max
            if topology is Topology.GBEST:
                assert phi_max in [position[3] for _, position in summary.per_restart]

    def test_one_row_block_tables_pinned(self):
        # above C = 2048 the objective evaluates one row per block, the path of
        # wide data that the bench grid (C <= 400) never takes
        data = generate_dataset(dataclasses.replace(get_setting(1), C=4096), 1)
        cfg = ExperimentConfig(restarts=2, swarm=SwarmConfig(n_iterations=10), master_seed=2)
        summaries = [run_restarts(data, cfg, topology, 1) for topology in Topology]
        assert emit_results_table(summaries) == (
            "setting,topology,best,mean,std,median\n"
            "1,gbest,9892.17,9932.63,57.22,9932.63\n"
            "1,lbest,9891.90,10296.52,572.21,10296.52\n"
        )
        assert emit_params_table(summaries) == (
            "setting,topology,k_g,t_g,mu_g,phi_g\n"
            "1,gbest,9.5657,0.3555,6.3135,92\n"
            "1,lbest,6.3525,0.3294,5.5266,8\n"
        )

    def test_lbest_trajectory_pinned(self):
        # lbest with m < n: pins neighbor tie-breaking and random draw order
        cfg = ExperimentConfig(
            restarts=3,
            swarm=SwarmConfig(n_particles=10, m_neighbors=5, n_iterations=20),
            master_seed=2021,
            data_seed=1,
        )
        data = generate_dataset(get_setting(4), cfg.data_seed)
        s = run_restarts(data, cfg, Topology.LBEST, setting_id=4)
        values = [v for v, _ in s.per_restart]
        expected = [235.0109137795319, 234.5209828475238, 234.8050202329779]
        assert values == pytest.approx(expected, rel=1e-9, abs=0.0)


class TestRunExperiment:
    def test_cell_count_and_order(self, tmp_path):
        summaries = write_bench_outputs(tmp_path, SMALL, [5, 4])
        assert [(s.setting_id, s.topology.value) for s in summaries] == [
            (5, "gbest"),
            (5, "lbest"),
            (4, "gbest"),
            (4, "lbest"),
        ]

    def test_empty_settings_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_bench_outputs(tmp_path, SMALL, [])

    def test_full_neighborhood_degenerates_to_gbest(self, tmp_path):
        cfg = ExperimentConfig(
            restarts=3,
            swarm=SwarmConfig(n_particles=6, m_neighbors=6, n_iterations=12),
            master_seed=2,
            data_seed=9,
        )
        gbest, lbest = write_bench_outputs(tmp_path, cfg, [4])
        assert gbest.topology is Topology.GBEST and lbest.topology is Topology.LBEST
        assert gbest.best == lbest.best
        assert gbest.mean == lbest.mean
        assert gbest.std == lbest.std
        assert gbest.median == lbest.median
        for (va, pa), (vb, pb) in zip(gbest.per_restart, lbest.per_restart):
            assert va == vb and np.array_equal(pa, pb)

    @pytest.mark.parametrize("settings", [[], [9], [4, 0]])
    def test_bad_settings_create_nothing(self, tmp_path, settings):
        out = tmp_path / "bench"
        with pytest.raises(ValueError):
            write_bench_outputs(out, SMALL, settings)
        assert not out.exists()

    def test_invalid_restarts(self):
        with pytest.raises(ValueError):
            ExperimentConfig(restarts=0)

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"k_bounds": (3.0, 1.0)}, "k_bounds must satisfy lower < upper"),
            ({"k_bounds": (-math.inf, 1.0)}, "k_bounds must be finite"),
            ({"k_bounds": (-1e308, 1e308)}, "domain span upper - lower must be finite"),
            ({"phi_max": 0}, "phi_max must be >= 1"),
            ({"phi_max": MAX_PHI + 1}, "phi_max must be at most 2**20"),
            ({"phi_max": 1.5}, "phi_max must be an integer, got 1.5"),
            ({"phi_max": 100.5}, "phi_max must be an integer, got 100.5"),
            ({"phi_max": math.nan}, "phi_max must be an integer, got nan"),
        ],
    )
    def test_invalid_box_knobs_rejected_at_construction(self, knobs, message):
        # the same check build_domain makes, so a bad knob is caught before
        # write_bench_outputs creates anything
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(**knobs)


class TestResultsTable:
    def test_reference_row(self):
        s = summary_fixture(1, "gbest", 965.85, 969.32, 5.2, 966.44)
        text = emit_results_table([s])
        assert text.splitlines() == [
            "setting,topology,best,mean,std,median",
            "1,gbest,965.85,969.32,5.20,966.44",
        ]

    def test_empty(self):
        assert emit_results_table([]) == "setting,topology,best,mean,std,median\n"

    def test_round_half_up(self):
        s = summary_fixture(1, "gbest", 1.005, 2.675, 0.0, 1.0)
        row = emit_results_table([s]).splitlines()[1]
        assert row == "1,gbest,1.01,2.68,0.00,1.00"

    def test_rows_sorted(self):
        summaries = [
            summary_fixture(2, "lbest", 1.0, 1.0, 0.0, 1.0),
            summary_fixture(1, "lbest", 1.0, 1.0, 0.0, 1.0),
            summary_fixture(2, "gbest", 1.0, 1.0, 0.0, 1.0),
            summary_fixture(1, "gbest", 1.0, 1.0, 0.0, 1.0),
        ]
        rows = emit_results_table(summaries).splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [
            ["1", "gbest"],
            ["1", "lbest"],
            ["2", "gbest"],
            ["2", "lbest"],
        ]


class TestParamsTable:
    def test_reference_rows(self):
        rows = emit_params_table(
            [
                summary_fixture(
                    1, "gbest", 0, 0, 0, 0, params=NbParams(5.4294, 0.4655, 6.3844, 17)
                ),
                summary_fixture(
                    2, "lbest", 0, 0, 0, 0, params=NbParams(-8.3863, 0.8398, 3.9933, 60)
                ),
            ]
        ).splitlines()
        assert rows[0] == "setting,topology,k_g,t_g,mu_g,phi_g"
        assert rows[1] == "1,gbest,5.4294,0.4655,6.3844,17"
        assert rows[2] == "2,lbest,-8.3863,0.8398,3.9933,60"

    def test_dispersion_has_no_decimal_point(self):
        row = emit_params_table(
            [summary_fixture(3, "gbest", 0, 0, 0, 0, params=NbParams(1.0, 0.5, 1.0, 2))]
        ).splitlines()[1]
        assert row.endswith(",2")


class TestFitCurve:
    truth = NbParams(7.0, 0.4, 6.0, 25)

    def test_midpoint_row(self):
        lines = emit_fit_curve(NbParams(7.0, 0.4, 6.0, 25), self.truth).splitlines()
        assert len(lines) == 202
        row = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
        assert float(row["0.4"]) == 6.0

    def test_endpoints_only(self):
        lines = emit_fit_curve(NbParams(1.0, 0.5, 2.0, 1), self.truth).splitlines()
        ts = [float(line.split(",")[0]) for line in lines[1:]]
        assert ts[0] == 0.0 and ts[-1] == 1.0
        assert ts == [j / 200 for j in range(201)]

    def test_flat_curve_when_k_zero(self):
        lines = emit_fit_curve(NbParams(0.0, 0.5, 3.0, 1), self.truth).splitlines()
        taus = {line.split(",")[1] for line in lines[1:]}
        assert taus == {"3.0"}

    def test_true_column(self):
        fit = NbParams(5.0, 0.45, 6.1, 20)
        lines = emit_fit_curve(fit, self.truth).splitlines()
        assert lines[0] == "t,tau_fit,tau_true"
        assert all(len(line.split(",")) == 3 for line in lines[1:])
        row = {line.split(",")[0]: line.split(",")[2] for line in lines[1:]}
        assert float(row["0.4"]) == 6.0


class TestOutputs:
    def test_write_bench_outputs(self, tmp_path):
        out = tmp_path / "bench"
        summaries = write_bench_outputs(out, SMALL, [4])
        assert len(summaries) == 2
        for name in (
            "results.csv",
            "params.csv",
            "run.json",
            "data_4.csv",
            "curve_4_gbest.csv",
            "curve_4_lbest.csv",
        ):
            assert (out / name).exists(), name
        results = (out / "results.csv").read_text().splitlines()
        assert len(results) == 3
        data = load_dataset(out / "data_4.csv")
        regen = generate_dataset(get_setting(4), SMALL.data_seed)
        assert np.array_equal(data.times, regen.times)
        assert np.array_equal(data.counts, regen.counts)
        doc = json.loads((out / "run.json").read_text())
        assert doc["config"]["restarts"] == SMALL.restarts
        assert len(doc["summaries"]) == 2
        for summary in doc["summaries"]:
            values = [r["value"] for r in summary["per_restart"]]
            assert summary["best"] == min(values)

    def test_summary_dict_round_trip(self):
        data = generate_dataset(get_setting(4), SMALL.data_seed)
        s = run_restarts(data, SMALL, Topology.GBEST, setting_id=4)
        doc = json.loads(json.dumps(summary_to_dict(s)))
        assert doc["setting"] == 4
        assert doc["topology"] == "gbest"
        assert doc["best"] == s.best
        assert doc["best_params"]["phi_g"] == s.best_params.phi_g
        assert len(doc["per_restart"]) == SMALL.restarts


class TestInputsAreValues:
    """Configs, domains, datasets and parameters are checked when built and
    cannot change afterwards."""

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: BoxDomain([0.0], [1.0]), "lower"),
            (lambda: SwarmConfig(), "n_particles"),
            (lambda: ExperimentConfig(), "k_bounds"),
            (lambda: NbParams(1.0, 0.5, 2.0, 3), "phi_g"),
            (lambda: Dataset([0.1, 0.5], [1, 5]), "times"),
        ],
    )
    def test_fields_cannot_be_assigned(self, make, name):
        value = make()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))

    def test_bound_and_data_arrays_are_read_only(self):
        data = Dataset(np.array([0.1, 0.5, 0.9]), np.array([1, 5, 3]))
        domain = build_domain(data)
        for array in (domain.lower, domain.upper, data.times, data.counts,
                      data._y, data._distinct, data._mult):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_an_objective_cannot_go_stale(self):
        # an in-place edit of times after make_objective used to leave a
        # call of several rows, which evaluates on the objective's own copy
        # of t, and a point call disagreeing: 234.18 against 281.34 here
        data = generate_dataset(get_setting(4), 1)
        objective = make_objective(data)
        x = np.array([7.0, 0.4, 6.0, 25.0])
        with pytest.raises(ValueError, match="read-only"):
            data.times[:] = data.times * 2.0
        assert objective(np.stack([x, x]))[0] == objective(x)

    def test_the_callers_arrays_are_copied_and_stay_writeable(self):
        lower, times = np.zeros(1), np.array([0.1, 0.5])
        domain = BoxDomain(lower, np.ones(1))
        data = Dataset(times, np.array([1, 5]))
        lower[0], times[0] = 0.5, 0.9
        assert domain.lower[0] == 0.0 and data.times[0] == 0.1

    def test_replace_derives_a_checked_variant(self):
        assert dataclasses.replace(SwarmConfig(), topology="lbest").topology is Topology.LBEST
        with pytest.raises(ValueError, match="n_particles"):
            dataclasses.replace(SwarmConfig(), n_particles=0)
        with pytest.raises(ValueError, match="k_bounds"):
            dataclasses.replace(ExperimentConfig(), k_bounds=(1.0, 1.0))
