from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from swarmfit import generate_dataset, get_setting
from swarmfit.model import sigmoid_mean
from swarmfit.simulate import sample_nb

from nb_reference import gammaln_log_pmf


class TestBuiltinSettings:
    expected = {
        1: (400, 7.0, 0.4, 6.0, 25),
        2: (400, -8.0, 0.85, 4.0, 80),
        3: (400, 1.6, 1.0, 1.4, 2),
        4: (100, 7.0, 0.4, 6.0, 25),
        5: (100, -8.0, 0.85, 4.0, 80),
        6: (100, 1.6, 1.0, 1.4, 2),
    }

    def test_six_settings(self):
        assert [get_setting(i).id for i in range(1, 7)] == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("setting_id", list(expected))
    def test_values(self, setting_id):
        s = get_setting(setting_id)
        assert (s.C, s.k_g, s.t_g, s.mu_g, s.phi_g) == self.expected[setting_id]

    def test_total_observations(self):
        assert sum(get_setting(i).C for i in range(1, 7)) == 1500

    def test_unknown_setting(self):
        with pytest.raises(ValueError):
            get_setting(0)
        with pytest.raises(ValueError):
            get_setting(7)


class TestSamplePseudotimes:
    def test_support(self):
        t = generate_dataset(replace(get_setting(1), C=500), 0).times
        assert t.shape == (500,)
        assert np.all((t >= 0.0) & (t <= 1.0))

    def test_deterministic(self):
        a = generate_dataset(get_setting(4), 9).times
        b = generate_dataset(get_setting(4), 9).times
        assert np.array_equal(a, b)

    def test_mean_near_half(self):
        t = generate_dataset(replace(get_setting(1), C=10_000), 1).times
        assert abs(t.mean() - 0.5) < 0.015

    def test_rejects_nonpositive_size(self):
        for C in (0, -1):
            with pytest.raises(ValueError):
                generate_dataset(replace(get_setting(1), C=C), 0)


class TestSampleNb:
    def test_scalar_draw(self):
        y = sample_nb(4.0, 10, np.random.default_rng(0))
        assert np.isscalar(y) or np.ndim(y) == 0
        assert int(y) >= 0

    def test_batch_shape(self):
        y = sample_nb(4.0, 10, np.random.default_rng(0), size=250)
        assert y.shape == (250,)
        assert np.all(y >= 0)

    def test_moments(self):
        tau, phi, n = 6.0, 25, 100_000
        y = sample_nb(tau, phi, np.random.default_rng(12), size=n)
        variance = tau + tau**2 / phi
        assert abs(y.mean() - tau) < 3.0 * np.sqrt(variance / n)
        assert abs(y.var(ddof=1) - variance) < 0.1 * variance

    def test_geometric_special_case_goodness_of_fit(self):
        # tau = phi = 1 is geometric(1/2); chi-square GOF at alpha = 0.001
        n = 100_000
        y = sample_nb(1.0, 1, np.random.default_rng(5), size=n)
        k_max = 12
        observed = np.array(
            [np.sum(y == k) for k in range(k_max)] + [np.sum(y >= k_max)]
        )
        probs = np.array([0.5 ** (k + 1) for k in range(k_max)])
        probs = np.append(probs, 1.0 - probs.sum())
        _, p_value = stats.chisquare(observed, n * probs)
        assert p_value > 0.001

    @pytest.mark.parametrize("tau,phi", [(6.0, 25), (4.0, 80), (1.4, 2)])
    def test_total_variation_against_pmf(self, tau, phi):
        n = 100_000
        y = sample_nb(tau, phi, np.random.default_rng(31), size=n)
        support = np.arange(y.max() + 1)
        empirical = np.bincount(y) / n
        truth = np.exp(gammaln_log_pmf(support, tau, phi))
        tail = 1.0 - truth.sum()
        tv = 0.5 * (np.abs(empirical - truth).sum() + tail)
        assert tv <= 0.02

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_nb(0.0, 5, rng)
        with pytest.raises(ValueError):
            sample_nb(1.0, 0, rng)


class TestGenerateDataset:
    def test_row_count_matches_setting(self):
        data = generate_dataset(get_setting(4), 123)
        assert len(data) == 100
        data = generate_dataset(get_setting(1), 123)
        assert len(data) == 400

    def test_deterministic(self):
        a = generate_dataset(get_setting(1), 55)
        b = generate_dataset(get_setting(1), 55)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.counts, b.counts)

    def test_support(self):
        data = generate_dataset(get_setting(3), 2)
        assert np.all((data.times >= 0.0) & (data.times <= 1.0))
        assert np.all(data.counts >= 0)

    def test_downregulated_scenario_has_negative_trend(self):
        # setting 2 has k < 0: counts fall with pseudotime
        for seed in range(20):
            data = generate_dataset(get_setting(2), seed)
            rho = stats.spearmanr(data.times, data.counts).statistic
            assert rho < 0 and abs(rho) > 0.3

    def test_binned_means_track_curve(self):
        setting = get_setting(1)
        data = generate_dataset(setting, 99)
        edges = np.linspace(0.0, 1.0, 11)
        which = np.clip(np.digitize(data.times, edges) - 1, 0, 9)
        hits = 0
        total = 0
        for b in range(10):
            mask = which == b
            n = int(mask.sum())
            if n == 0:
                continue
            total += 1
            tau = sigmoid_mean(data.times[mask], setting.params)
            expected = float(tau.mean())
            se = float(np.sqrt(np.sum(tau + tau**2 / setting.phi_g)) / n)
            if abs(data.counts[mask].mean() - expected) <= 3.0 * se:
                hits += 1
        assert hits >= 0.9 * total
