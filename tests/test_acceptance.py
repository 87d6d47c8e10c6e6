"""Acceptance suite: every shipped guarantee, one test per criterion.

Each test prints a single `[acceptance] criterion N: PASS/FAIL` line (visible
with `pytest -s` or on failure) and then asserts.  The expensive full-grid
experiment is shared by the criteria that consume it.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from swarmfit import (
    BoxDomain,
    SwarmConfig,
    build_domain,
    decode_position,
    generate_dataset,
    get_setting,
    make_objective,
    optimize,
)
from swarmfit.bench import ExperimentConfig, run_restarts
from swarmfit.model import Dataset, NbParams, neg_log_likelihood, sigmoid_mean
from swarmfit.pso import Topology, init_swarm, step
from swarmfit.simulate import sample_nb
from swarmfit.cli import main as cli_main

from nb_reference import fit_log_pmf, gammaln_log_pmf, rational_log_pmf

DATA_SEED = 20260811
MASTER_SEED = 7


def report(criterion: int, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} {detail}".rstrip())
    return ok


@pytest.fixture(scope="module")
def grid_experiment():
    """Full benchmark: all 6 settings x both topologies x 50 restarts."""
    cfg = ExperimentConfig(restarts=50, master_seed=MASTER_SEED, data_seed=DATA_SEED)
    start = time.perf_counter()
    summaries = []
    for setting_id in range(1, 7):
        data = generate_dataset(get_setting(setting_id), cfg.data_seed)
        for topology in (Topology.GBEST, Topology.LBEST):
            summaries.append(run_restarts(data, cfg, topology, setting_id))
    elapsed = time.perf_counter() - start
    return cfg, summaries, elapsed


def test_criterion_1_sphere_benchmark():
    domain = BoxDomain(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))

    def sphere(x):
        return float(x @ x)

    start = time.perf_counter()
    finals = [
        optimize(sphere, domain, SwarmConfig(seed=s)).best_value for s in range(50)
    ]
    elapsed = time.perf_counter() - start
    median = float(np.median(finals))
    ok = median < 1e-2 and elapsed < 1.0
    report(1, ok, f"(median={median:.2e}, runtime={elapsed:.2f}s)")
    assert median < 1e-2
    assert elapsed < 1.0


def test_criterion_2_mle_dominance(grid_experiment):
    cfg, summaries, elapsed = grid_experiment
    assert len(summaries) == 12
    by_cell = {(s.setting_id, s.topology): s for s in summaries}
    failures = []
    checked = []
    for setting_id in range(1, 7):
        setting = get_setting(setting_id)
        data = generate_dataset(setting, cfg.data_seed)
        domain = build_domain(data, cfg.k_bounds, cfg.phi_max)
        truth = np.array(
            [setting.k_g, setting.t_g, setting.mu_g, float(setting.phi_g)]
        )
        if not domain.contains(truth):
            continue
        nll_truth = neg_log_likelihood(setting.params, data)
        checked.append(setting_id)
        for topology in (Topology.GBEST, Topology.LBEST):
            best = by_cell[(setting_id, topology)].best
            if not best <= nll_truth + 0.5:
                failures.append((setting_id, topology.value, best, nll_truth))
    ok = not failures and elapsed < 30.0 and len(checked) > 0
    report(
        2,
        ok,
        f"(settings with truth in box: {checked}, grid runtime={elapsed:.1f}s)",
    )
    assert not failures, failures
    assert elapsed < 30.0


def test_criterion_3_topology_agreement(grid_experiment):
    _, summaries, _ = grid_experiment
    by_cell = {(s.setting_id, s.topology): s for s in summaries}
    gaps = {}
    for setting_id in range(1, 7):
        best_g = by_cell[(setting_id, Topology.GBEST)].best
        best_l = by_cell[(setting_id, Topology.LBEST)].best
        gaps[setting_id] = abs(best_g - best_l) / best_g
    worst = max(gaps.values())
    ok = worst <= 0.01
    report(3, ok, f"(worst relative gap={worst:.2e})")
    assert ok, gaps


def test_criterion_4_parameter_recovery():
    failures = []
    details = []
    for setting_id in (1, 2):
        setting = get_setting(setting_id)
        t_errors = {t: [] for t in Topology}
        mu_errors = {t: [] for t in Topology}
        for data_seed in range(1, 6):
            cfg = ExperimentConfig(
                restarts=50, master_seed=MASTER_SEED, data_seed=data_seed
            )
            data = generate_dataset(setting, data_seed)
            for topology in Topology:
                summary = run_restarts(data, cfg, topology, setting_id)
                t_errors[topology].append(abs(summary.best_params.t_g - setting.t_g))
                mu_errors[topology].append(
                    abs(summary.best_params.mu_g - setting.mu_g) / setting.mu_g
                )
        for topology in Topology:
            t_err = float(np.mean(t_errors[topology]))
            mu_err = float(np.mean(mu_errors[topology]))
            details.append(f"s{setting_id}/{topology.value}: t={t_err:.3f} mu={mu_err:.3f}")
            if t_err > 0.15 or mu_err > 0.20:
                failures.append((setting_id, topology.value, t_err, mu_err))
    ok = not failures
    report(4, ok, "(" + "; ".join(details) + ")")
    assert not failures, failures


def test_criterion_5_full_neighborhood_degenerates_to_gbest():
    cfg = ExperimentConfig(
        restarts=50,
        swarm=SwarmConfig(n_particles=10, m_neighbors=10),
        master_seed=MASTER_SEED,
        data_seed=DATA_SEED,
    )
    data = generate_dataset(get_setting(1), cfg.data_seed)
    gbest = run_restarts(data, cfg, Topology.GBEST, setting_id=1)
    lbest = run_restarts(data, cfg, Topology.LBEST, setting_id=1)
    identical = (
        gbest.best == lbest.best
        and gbest.mean == lbest.mean
        and gbest.std == lbest.std
        and gbest.median == lbest.median
        and gbest.best_params == lbest.best_params
        and all(
            va == vb and np.array_equal(pa, pb)
            for (va, pa), (vb, pb) in zip(gbest.per_restart, lbest.per_restart)
        )
    )
    report(5, identical)
    assert identical


def test_criterion_6_pmf_correctness():
    worst_rel = 0.0
    for tau in (1, 2, 6):
        for phi in (1, 3, 25):
            for y in range(51):
                expected = rational_log_pmf(y, Fraction(tau), phi)
                got = fit_log_pmf(y, float(tau), phi)
                worst_rel = max(worst_rel, abs(got - expected) / abs(expected))
    min_total = 1.0
    for tau in (0.5, 1.0, 6.0, 12.0):
        for phi in (1, 2, 25, 80):
            y_max = int(10 * (tau + tau**2 / phi) + 200)
            pmf = np.exp([fit_log_pmf(y, tau, phi) for y in range(y_max + 1)])
            min_total = min(min_total, float(pmf.sum()))
    ok = worst_rel <= 1e-10 and min_total >= 1.0 - 1e-6
    report(6, ok, f"(worst rel err={worst_rel:.2e}, min truncated mass={min_total:.8f})")
    assert worst_rel <= 1e-10
    assert min_total >= 1.0 - 1e-6


def test_criterion_7_generator_fidelity():
    n = 100_000
    checks = []
    for tau, phi in ((6.0, 25), (4.0, 80), (1.4, 2)):
        draws = sample_nb(tau, phi, np.random.default_rng(17), size=n)
        variance = tau + tau**2 / phi
        mean_ok = abs(draws.mean() - tau) <= 3.0 * math.sqrt(variance / n)
        var_ok = abs(draws.var(ddof=1) - variance) <= 0.1 * variance
        support = np.arange(draws.max() + 1)
        truth = np.exp(gammaln_log_pmf(support, tau, phi))
        empirical = np.bincount(draws) / n
        tv = 0.5 * (np.abs(empirical - truth).sum() + (1.0 - truth.sum()))
        checks.append((mean_ok, var_ok, tv <= 0.02, tv))
    ok = all(m and v and t for m, v, t, _ in checks)
    report(7, ok, f"(TV distances: {[f'{tv:.4f}' for *_, tv in checks]})")
    assert ok, checks


def test_criterion_8_invariant_suite():
    data = generate_dataset(get_setting(4), DATA_SEED)
    domain = build_domain(data)
    objective = make_objective(data)
    cfg = SwarmConfig(seed=5)

    result_a = optimize(objective, domain, cfg)
    result_b = optimize(objective, domain, cfg)
    monotone = bool(np.all(np.diff(result_a.trace) <= 0.0))
    deterministic = (
        result_a.best_value == result_b.best_value
        and np.array_equal(result_a.best_position, result_b.best_position)
        and np.array_equal(result_a.trace, result_b.trace)
    )

    rng = np.random.default_rng(5)
    swarm = init_swarm(domain, cfg, objective, rng)
    contained = True
    for _ in range(cfg.n_iterations):
        step(swarm, objective, domain, cfg, rng)
        contained &= bool(
            np.all(swarm.positions >= domain.lower)
            and np.all(swarm.positions <= domain.upper)
        )

    params = NbParams(4.0, 0.3, 5.0, 12)
    perm = np.random.default_rng(0).permutation(len(data))
    shuffled = Dataset(data.times[perm], data.counts[perm])
    nll_a = neg_log_likelihood(params, data)
    nll_b = neg_log_likelihood(params, shuffled)
    permutation_ok = abs(nll_a - nll_b) <= 1e-12 * abs(nll_a)

    symmetric = True
    for t_g in (0.25, 0.5):
        for t in np.arange(-0.5, 1.5, 1.0 / 32.0):
            for k in (0.5, -7.0, 13.0):
                left = sigmoid_mean(2.0 * t_g - t, NbParams(k, t_g, 3.0, 2))
                right = sigmoid_mean(t, NbParams(-k, t_g, 3.0, 2))
                symmetric &= left == right

    ok = monotone and deterministic and contained and permutation_ok and symmetric
    report(
        8,
        ok,
        f"(monotone={monotone}, containment={contained}, determinism={deterministic}, "
        f"nll_permutation={permutation_ok}, sigmoid_symmetry={symmetric})",
    )
    assert ok


def test_criterion_9_cli_round_trip(tmp_path):
    data_csv = tmp_path / "data.csv"
    fit_json = tmp_path / "fit.json"
    bench_dir = tmp_path / "bench"

    assert cli_main(["simulate", "--setting", "4", "--seed", "1",
                     "--out", str(data_csv)]) == 0
    assert cli_main(["fit", "--data", str(data_csv), "--topology", "gbest",
                     "--seed", "2", "--out", str(fit_json)]) == 0
    assert cli_main(["bench", "--settings", "4", "--data-seed", "1", "--seed", "2",
                     "--out-dir", str(bench_dir)]) == 0

    problems = []

    def check_summary(doc):
        values = [r["value"] for r in doc["per_restart"]]
        if doc["best"] != min(values):
            problems.append("best != min(per_restart)")
        if not doc["best"] <= doc["median"] <= max(values):
            problems.append("best <= median <= max violated")
        mean = float(np.mean(values))
        lhs = doc["std"] ** 2 * (len(values) - 1)
        rhs = float(np.sum((np.asarray(values) - mean) ** 2))
        if abs(lhs - rhs) > 1e-9 * max(rhs, 1.0):
            problems.append("std identity violated")
        best_pos = next(
            r["position"] for r in doc["per_restart"] if r["value"] == doc["best"]
        )
        decoded = decode_position(np.asarray(best_pos))
        if decoded != NbParams(**doc["best_params"]):
            problems.append("best_params does not decode the best position")

    check_summary(json.loads(fit_json.read_text())["summary"])
    bench_doc = json.loads(bench_dir.joinpath("run.json").read_text())
    for summary in bench_doc["summaries"]:
        check_summary(summary)

    results_lines = (bench_dir / "results.csv").read_text().splitlines()
    params_lines = (bench_dir / "params.csv").read_text().splitlines()
    if len(results_lines) != 3 or len(params_lines) != 3:
        problems.append("summary CSVs have wrong row counts")
    for line in results_lines[1:]:
        setting, topology, *stats = line.split(",")
        if setting != "4" or topology not in ("gbest", "lbest"):
            problems.append(f"unexpected results row {line!r}")
        if not all(float(v) >= 0 for v in stats):
            problems.append(f"non-numeric stats in {line!r}")
    for name in ("curve_4_gbest.csv", "curve_4_lbest.csv", "data_4.csv"):
        if not (bench_dir / name).exists():
            problems.append(f"missing {name}")
    curve_lines = (bench_dir / "curve_4_gbest.csv").read_text().splitlines()
    if curve_lines[0] != "t,tau_fit,tau_true":
        problems.append("curve header mismatch")

    ok = not problems
    report(9, ok, "" if ok else f"({problems})")
    assert ok, problems
