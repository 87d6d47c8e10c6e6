import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from swarmfit import (
    SwarmConfig,
    build_domain,
    decode_position,
    generate_dataset,
    get_setting,
    make_objective,
    optimize,
)
from swarmfit.model import (
    _BLOCK_CELLS,
    MAX_PHI,
    MU_FLOOR,
    TAU_FLOOR,
    Dataset,
    NbParams,
    load_dataset,
    neg_log_likelihood,
    save_dataset,
    sigmoid_mean,
)

from nb_reference import fit_log_pmf, gammaln_log_pmf, rational_log_pmf


class TestNbParams:
    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            NbParams(1.0, 0.5, 0.0, 1)

    def test_rejects_phi_below_one(self):
        with pytest.raises(ValueError):
            NbParams(1.0, 0.5, 1.0, 0)

    def test_rejects_fractional_phi(self):
        with pytest.raises(ValueError):
            NbParams(1.0, 0.5, 1.0, 2.5)

    def test_integral_float_phi_coerced(self):
        params = NbParams(1.0, 0.5, 1.0, 25.0)
        assert params.phi_g == 25 and isinstance(params.phi_g, int)

    @pytest.mark.parametrize("name", ["k_g", "t_g", "mu_g"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_continuous_parameters(self, name, value):
        # a nan k_g made sigmoid_mean nan, and mu_g = inf an infinite mean
        fields = {"k_g": 1.0, "t_g": 0.5, "mu_g": 1.0, "phi_g": 2, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            NbParams(**fields)


class TestDataset:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(times=[0.1, 0.2], counts=[1])

    def test_empty(self):
        with pytest.raises(ValueError):
            Dataset(times=[], counts=[])

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            Dataset(times=[0.1], counts=[-1])

    def test_fractional_counts(self):
        with pytest.raises(ValueError):
            Dataset(times=[0.1], counts=[1.5])

    def test_non_finite_times(self):
        with pytest.raises(ValueError):
            Dataset(times=[np.nan], counts=[1])

    @pytest.mark.parametrize("count", [2**53 + 1, 2**63, 2**64, 1e300, np.inf])
    def test_count_above_2_53_rejected(self, count):
        with pytest.raises(ValueError, match=r"at most 2\*\*53"):
            Dataset(times=[0.1, 0.2], counts=[1, count])

    def test_count_2_53_accepted(self):
        # the objective evaluates the count as 2**53: at tau = 1e-3 its NLL,
        # about 8e16, was within 4.4e-16 relative of the 40-digit reference
        # (worst 6.5e-16 over k in [-20, 20] and phi in [1, 50])
        data = Dataset(times=[0.1, 0.2], counts=[1, 2**53])
        assert data.counts[1] == 2**53
        nll = make_objective(data)([0.0, 0.5, 1e-3, 7.0])
        exact = exact_nll(data, NbParams(0.0, 0.5, 1e-3, 7))
        assert abs(Decimal(nll) - exact) <= Decimal("2e-15") * exact

    def test_integral_floats_accepted(self):
        data = Dataset(times=[0.1, 0.9], counts=[2.0, 0.0])
        assert data.counts.dtype == np.int64
        assert len(data) == 2


class TestSigmoidMean:
    def test_value_at_activation_time(self):
        params = NbParams(3.7, 0.25, 4.5, 10)
        assert sigmoid_mean(0.25, params) == 4.5

    def test_builtin_scenario_midpoint(self):
        params = NbParams(7.0, 0.4, 6.0, 25)
        assert sigmoid_mean(0.4, params) == 6.0

    def test_upper_saturation(self):
        params = NbParams(7.0, 0.4, 6.0, 25)
        assert abs(sigmoid_mean(100.4, params) - 12.0) <= 1e-12

    def test_lower_saturation_floors(self):
        params = NbParams(7.0, 0.4, 6.0, 25)
        assert sigmoid_mean(-1000.0, params) == TAU_FLOOR

    def test_exp_overflow_floors(self):
        # exp(1000) overflows to inf, so tau = 2*mu/inf = 0 and is floored; the
        # true tau is about 1e-134, far below the floor.  Clamping the exp
        # argument at 700 would give 2e300/(1 + e**700), about 2e-4.
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is silenced
            assert sigmoid_mean(1.0, NbParams(-1e3, 0.0, 1e300, 1)) == TAU_FLOOR

    def test_vectorized(self):
        params = NbParams(2.0, 0.5, 3.0, 5)
        t = np.linspace(0.0, 1.0, 7)
        out = sigmoid_mean(t, params)
        assert out.shape == (7,)
        assert out[3] == pytest.approx(3.0)
        assert sigmoid_mean(np.array([]), params).shape == (0,)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            params = NbParams(rng.uniform(-10, 10), rng.uniform(0, 1), rng.uniform(0.1, 20), 5)
            t = rng.uniform(-2, 3)
            tau = sigmoid_mean(t, params)
            assert 0.0 < tau <= 2.0 * params.mu_g

    def test_monotonicity(self):
        t = np.linspace(0.0, 1.0, 101)
        up = sigmoid_mean(t, NbParams(4.0, 0.5, 2.0, 3))
        down = sigmoid_mean(t, NbParams(-4.0, 0.5, 2.0, 3))
        flat = sigmoid_mean(t, NbParams(0.0, 0.5, 2.0, 3))
        assert np.all(np.diff(up) > 0)
        assert np.all(np.diff(down) < 0)
        assert np.all(flat == 2.0)

    def test_reflection_symmetry_exact_on_dyadic_grid(self):
        # dyadic t and t_g make 2*t_g - t exact, so the identity holds bitwise
        for t_g in (0.25, 0.5, 0.75):
            for t in np.arange(0.0, 1.0 + 1e-9, 1.0 / 64.0):
                for k in (0.5, 1.5, -7.0):
                    left = sigmoid_mean(2.0 * t_g - t, NbParams(k, t_g, 3.0, 2))
                    right = sigmoid_mean(t, NbParams(-k, t_g, 3.0, 2))
                    assert left == right

    def test_reflection_symmetry_random_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            k = rng.uniform(-15, 15)
            t_g = rng.uniform(0, 1)
            mu = rng.uniform(0.1, 10)
            t = rng.uniform(-1, 2)
            left = sigmoid_mean(2.0 * t_g - t, NbParams(k, t_g, mu, 2))
            right = sigmoid_mean(t, NbParams(-k, t_g, mu, 2))
            assert left == pytest.approx(right, rel=1e-12)


class TestNbLogPmf:
    """The fit's own likelihood of one cell (fit_log_pmf) is the NB log-pmf."""

    def test_zero_count_reduces_to_tail_term(self):
        for tau in (0.5, 2.0, 9.0):
            for phi in (1, 3, 40):
                expected = phi * math.log(phi / (tau + phi))
                assert fit_log_pmf(0, tau, phi) == pytest.approx(expected, rel=1e-12)

    def test_geometric_special_case(self):
        # tau = phi = 1 is geometric with success probability 1/2
        assert fit_log_pmf(0, 1.0, 1) == pytest.approx(math.log(0.5), rel=1e-14)
        for y in range(20):
            assert fit_log_pmf(y, 1.0, 1) == pytest.approx(
                -(y + 1) * math.log(2.0), rel=1e-12
            )

    def test_small_case_against_rational_oracle(self):
        # pmf(1; tau=2, phi=3) = 3 * (2/5) * (3/5)^3 = 162/625
        expected = rational_log_pmf(1, Fraction(2), 3)
        assert expected == pytest.approx(math.log(162 / 625), rel=1e-12)
        assert fit_log_pmf(1, 2.0, 3) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("tau", [1, 2, 6])
    @pytest.mark.parametrize("phi", [1, 3, 25])
    def test_rational_consistency_grid(self, tau, phi):
        for y in range(51):
            expected = rational_log_pmf(y, Fraction(tau), phi)
            assert fit_log_pmf(y, float(tau), phi) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 6.0, 12.0])
    @pytest.mark.parametrize("phi", [1, 2, 25, 80])
    def test_normalization_and_moments(self, tau, phi):
        variance = tau + tau**2 / phi
        y_max = int(10 * variance + 200)
        ys = np.arange(y_max + 1)
        pmf = np.exp([fit_log_pmf(y, tau, phi) for y in ys.tolist()])
        total = pmf.sum()
        assert total >= 1.0 - 1e-6
        mean = float(ys @ pmf)
        second = float((ys.astype(float) ** 2) @ pmf)
        assert mean == pytest.approx(tau, rel=1e-4)
        assert second - mean**2 == pytest.approx(variance, rel=1e-4)


def exact_nll(data: Dataset, params: NbParams) -> Decimal:
    """Reference: the NLL at 40 significant digits, from the float tau of
    sigmoid_mean, as -sum over cells of ln C(y+phi-1, y) + y ln(tau)
    + phi ln(phi) - (y+phi) ln(tau+phi), the binomial coefficient exact."""
    with localcontext(Context(prec=40)):
        phi = Decimal(params.phi_g)
        total = Decimal(0)
        for y, tau in zip(data.counts.tolist(), sigmoid_mean(data.times, params).tolist()):
            tau = Decimal(tau)
            total += (Decimal(math.comb(y + params.phi_g - 1, y)).ln() + y * tau.ln()
                      + phi * phi.ln() - (y + phi) * (tau + phi).ln())
        return -total


class TestNegLogLikelihood:
    def test_single_observation(self):
        data = Dataset(times=[0.3], counts=[4])
        params = NbParams(5.0, 0.4, 3.0, 7)
        tau = sigmoid_mean(0.3, params)
        assert neg_log_likelihood(params, data) == pytest.approx(
            -rational_log_pmf(4, Fraction(tau), 7), rel=1e-14
        )

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(1)
        t1, t2 = rng.random(40), rng.random(25)
        y1, y2 = rng.poisson(4.0, 40), rng.poisson(4.0, 25)
        params = NbParams(3.0, 0.5, 4.0, 9)
        d1, d2 = Dataset(t1, y1), Dataset(t2, y2)
        combined = Dataset(np.concatenate([t1, t2]), np.concatenate([y1, y2]))
        assert neg_log_likelihood(params, combined) == pytest.approx(
            neg_log_likelihood(params, d1) + neg_log_likelihood(params, d2), rel=1e-12
        )

    def test_against_independent_termwise_oracle(self):
        setting = get_setting(1)
        data = generate_dataset(setting, 2024)
        params = setting.params
        total = 0.0
        for t, y in zip(data.times, data.counts):
            tau = 2.0 * params.mu_g / (1.0 + math.exp(-params.k_g * (t - params.t_g)))
            phi = params.phi_g
            total += (
                math.lgamma(y + phi)
                - math.lgamma(y + 1)
                - math.lgamma(phi)
                + y * math.log(tau / (tau + phi))
                + phi * math.log(phi / (tau + phi))
            )
        assert neg_log_likelihood(params, data) == pytest.approx(-total, rel=1e-9)

    @pytest.mark.parametrize("setting_id", range(1, 7))
    def test_accurate_over_the_phi_box(self, setting_id):
        # the phi-only sum C*phi*log(phi) cancels against the per-cell
        # (y + phi)*log(tau + phi), which costs accuracy as phi grows; up to
        # MAX_PHI the worst relative error measured was 1.6e-9
        setting = get_setting(setting_id)
        data = generate_dataset(setting, 1)
        objective = make_objective(data)
        for phi in (1, 200, MAX_PHI):
            params = dataclasses.replace(setting, phi_g=phi).params
            nll = objective([params.k_g, params.t_g, params.mu_g, float(phi)])
            exact = exact_nll(data, params)
            assert nll > 0
            assert abs(Decimal(nll) - exact) <= Decimal("5e-9") * exact, (phi, nll, exact)

    def test_applies_the_objectives_phi_rule(self):
        # neg_log_likelihood is the objective at (k, t0, mu, phi): equal up to
        # MAX_PHI, and rejected past it, where the likelihood loses accuracy
        data = generate_dataset(get_setting(4), 1)
        truth = get_setting(4).params
        at_cap = dataclasses.replace(truth, phi_g=MAX_PHI)
        x = [truth.k_g, truth.t_g, truth.mu_g, float(MAX_PHI)]
        assert neg_log_likelihood(at_cap, data) == make_objective(data)(x)
        for phi in (MAX_PHI + 1, 2**40):
            with pytest.raises(ValueError, match=f"round to at most {MAX_PHI}"):
                neg_log_likelihood(dataclasses.replace(truth, phi_g=phi), data)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        data = generate_dataset(get_setting(4), 7)
        params = NbParams(4.0, 0.3, 5.0, 12)
        perm = rng.permutation(len(data))
        shuffled = Dataset(data.times[perm], data.counts[perm])
        assert neg_log_likelihood(params, shuffled) == pytest.approx(
            neg_log_likelihood(params, data), rel=1e-12
        )

    def test_finite_at_extreme_parameters(self):
        data = generate_dataset(get_setting(4), 7)
        # saturated sigmoid drives tau to the floor; likelihood must stay finite
        for params in (
            NbParams(20.0, 0.0, MU_FLOOR, 200),
            NbParams(-20.0, 1.0, MU_FLOOR, 1),
            NbParams(20.0, 1.0, 50.0, 1),
        ):
            assert math.isfinite(neg_log_likelihood(params, data))

    def test_fit_dominates_generating_truth(self):
        setting = get_setting(4)
        data = generate_dataset(setting, 11)
        domain = build_domain(data)
        truth = np.array([setting.k_g, setting.t_g, setting.mu_g, float(setting.phi_g)])
        assert domain.contains(truth)
        result = optimize(make_objective(data), domain, SwarmConfig(seed=1))
        assert result.best_value <= neg_log_likelihood(setting.params, data) + 0.5


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def box_points(draw, domain):
    """A point of the box: each coordinate at a face or strictly inside, and
    the dispersion coordinate sometimes exactly on a .5 rounding boundary."""
    x = []
    for lo, hi in zip(domain.lower, domain.upper):
        where = draw(st.sampled_from(["lower", "upper", "inside"]))
        if where == "inside":
            x.append(lo + draw(st.floats(0.0, 1.0)) * (hi - lo))
        else:
            x.append(lo if where == "lower" else hi)
    if draw(st.booleans()):
        x[3] = draw(st.integers(int(domain.lower[3]), int(domain.upper[3]) - 1)) + 0.5
    return np.array(x)


@st.composite
def edge_datasets(draw):
    """C = 1, all-zero counts, constant pseudotime, or counts in the thousands."""
    kind = draw(st.sampled_from(["single", "zeros", "constant_t", "thousands"]))
    c = 1 if kind == "single" else draw(st.integers(2, 60))
    high = 5000 if kind in ("single", "thousands") else 30
    low = 1000 if kind == "thousands" else 0
    times = draw(st.lists(st.floats(0.0, 1.0), min_size=c, max_size=c))
    if kind == "constant_t":
        times = [times[0]] * c
    counts = draw(st.lists(st.integers(low, high), min_size=c, max_size=c))
    if kind == "zeros":
        counts = [0] * c
    return Dataset(times, counts)


def quiet_domain(data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # degenerate mu box
        return build_domain(data)


def summed_pmf_nll(x, data):
    """Reference: -sum of the per-cell gammaln_log_pmf, and the magnitude of the
    terms the folded NLL adds up, which bounds its rounding error.  Rounding
    tau+phi costs about one ulp of log(tau+phi) in absolute terms, so each
    (y+phi)*log(tau+phi) term counts as at least y+phi."""
    params = decode_position(x)
    phi = params.phi_g
    tau = sigmoid_mean(data.times, params)
    ref = -float(np.sum(gammaln_log_pmf(data.counts, tau, phi)))
    y = data.counts
    magnitude = float(len(data) * phi * math.log(phi)
                      + y @ np.abs(np.log(tau)) + (y + phi) @ (np.log(tau + phi) + 1.0))
    return ref, magnitude


class TestLikelihoodProperties:
    """The folded NLL against the checked per-cell pmf, on points of the box.

    Tolerance: 1e-12 relative to the NLL on the simulator's datasets.  On
    arbitrary datasets the NLL can be far smaller than the terms it sums
    (all-zero counts at tau ~ 0 give an NLL near 0 from terms of size
    C*phi*log(phi)), so there the bound is 1e-12 of the NLL plus 1e-14 of
    that term magnitude.
    """

    @PROPERTY
    @given(setting_id=st.integers(1, 6), seed=st.integers(0, 2**32), draw=st.data())
    def test_matches_summed_pmf_on_simulated_data(self, setting_id, seed, draw):
        data = generate_dataset(get_setting(setting_id), seed)
        x = draw.draw(box_points(quiet_domain(data)))
        ref, _ = summed_pmf_nll(x, data)
        assert make_objective(data)(x) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @PROPERTY
    @given(data=edge_datasets(), draw=st.data())
    def test_finite_and_matches_summed_pmf_on_edge_data(self, data, draw):
        x = draw.draw(box_points(quiet_domain(data)))
        ref, magnitude = summed_pmf_nll(x, data)
        got = make_objective(data)(x)
        assert math.isfinite(got)
        assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-14 * magnitude


# The exp clamp of the reference sigmoid: an exp argument above it gives a tau
# below TAU_FLOOR at every point of the box (2*mu <= 2**53), one below -EXP_CLAMP
# rounds 1 + exp(z) to 1.  So on the box the clamp changes no floored tau.
EXP_CLAMP = 700.0


def clamped_sigmoid_mean(t, params):
    """Reference: the sigmoid with its exp argument always clamped and tau
    always floored."""
    z = np.clip(-params.k_g * (t - params.t_g), -EXP_CLAMP, EXP_CLAMP)
    return np.maximum(2.0 * params.mu_g / (1.0 + np.exp(z)), TAU_FLOOR)


@st.composite
def steep_points(draw, domain):
    """A box point whose k reaches 1e4 in magnitude, sometimes exactly where
    |k|*max(t_hi - t0, t0 - t_lo) crosses EXP_CLAMP."""
    x = draw(box_points(domain))
    reach = max(domain.upper[1] - x[1], x[1] - domain.lower[1])
    if reach > 0 and draw(st.booleans()):
        k = EXP_CLAMP / reach
        steps = draw(st.integers(-2, 2))
        for _ in range(abs(steps)):
            k = np.nextafter(k, np.inf if steps > 0 else 0.0)
        x[0] = draw(st.sampled_from([-1.0, 1.0])) * k
    else:
        x[0] = draw(st.floats(-1e4, 1e4))
    return x


@st.composite
def floor_cases(draw):
    """(dataset, k, t0, mu): the smallest tau, 2*mu/(1 + exp(reach)) with
    reach = |k|*max(t_hi - t0, t0 - t_lo), lands on either side of
    TAU_FLOOR, below which the floor acts, or of 2*TAU_FLOOR, with mu down to
    MU_FLOOR and |k| up to 1e4.  k's sign makes z peak on the longer side of
    t0, so z's peak equals reach.  Sometimes the case is moved to a reach
    where np.exp rounds above math.exp and mu to within a few ulps of the
    level, so that the smallest tau sits within a few ulps of it."""
    c = draw(st.integers(1, 30))
    times = draw(st.lists(st.floats(0.0, 1.0), min_size=c, max_size=c))
    counts = draw(st.lists(st.integers(0, 50), min_size=c, max_size=c))
    t_lo, t_hi = min(times), max(times)
    t0 = draw(st.floats(t_lo, t_hi))
    side = max(t_hi - t0, t0 - t_lo)
    sign = 1.0 if t0 - t_lo >= t_hi - t0 else -1.0
    mu = draw(st.just(MU_FLOOR) | st.floats(-6.0, 4.0).map(lambda e: 10.0**e))
    level = draw(st.sampled_from([TAU_FLOOR, 2 * TAU_FLOOR]))
    level *= draw(st.sampled_from([0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0]))
    if side == 0.0:
        return Dataset(times, counts), draw(st.floats(-1e4, 1e4)), t0, mu
    k = min(math.log(2.0 * mu / level - 1.0) / side, 1e4)
    if k * side < 600.0 and draw(st.booleans()):
        for _ in range(2000):
            reach = k * side
            e = math.exp(reach)
            if np.exp(np.array([reach]))[0] > e:
                mu = level * (1.0 + e) / 2.0
                for _ in range(draw(st.integers(0, 4))):
                    mu = np.nextafter(mu, draw(st.sampled_from([0.0, np.inf])))
                break
            k = np.nextafter(k, np.inf)
    return Dataset(times, counts), sign * float(k), t0, float(mu)


@st.composite
def simulated_datasets(draw):
    """A built-in setting's data at its own C or at a C from 1 to 500."""
    setting = get_setting(draw(st.integers(1, 6)))
    if draw(st.booleans()):
        setting = dataclasses.replace(setting, C=draw(st.integers(1, 500)))
    return generate_dataset(setting, draw(st.integers(0, 2**32)))


@st.composite
def phi_lists(draw):
    """Integer phi in [1, 2**53], each an int or a float, with repeats."""
    values = draw(st.lists(st.one_of(
        st.integers(1, 300), st.integers(1, 2**53), st.sampled_from([2**52 + 1, 2**53])
    ), min_size=1, max_size=12))
    values += draw(st.lists(st.sampled_from(values), max_size=6))
    return [float(v) if draw(st.booleans()) else v for v in values]


def per_phi_terms(data, phi):
    """Reference: the phi-only sum of one phi on its own, each distinct
    count's lgamma(y + phi) - lgamma(y + 1) - lgamma(phi) by math.lgamma,
    summed against the multiplicities by a 1-d dot."""
    lgamma = np.vectorize(math.lgamma, otypes=[float])
    y = data._distinct
    terms = lgamma(y + phi) - lgamma(y + 1) - math.lgamma(phi)
    return float(data._mult @ terms) + len(data) * phi * math.log(phi)


def reference_nll(x, data):
    """Reference: the NLL summed in the objective's operation order, from
    clamped_sigmoid_mean, which clamps every exp argument and floors every
    tau."""
    params = decode_position(x)
    tau = clamped_sigmoid_mean(data.times, params)
    y = data.counts.astype(float)
    s = y @ np.log(tau)
    phi = params.phi_g
    return -float(data._phi_terms([phi])[0] + s - (y + phi) @ np.log(tau + phi))


class TestObjectiveProperties:
    """The allocation-free objective against the reference paths."""

    @PROPERTY
    @given(case=floor_cases(), phi=st.integers(1, 200))
    def test_floor_skip_is_exact(self, case, phi):
        data, k, t0, mu = case
        params = NbParams(k, t0, mu, phi)
        x = np.array([k, t0, mu, float(phi)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an exp overflow that is not silenced warns
            tau = sigmoid_mean(data.times, params)
            got = make_objective(data)(x)
        assert tau.tobytes() == clamped_sigmoid_mean(data.times, params).tobytes()
        assert got == reference_nll(x, data)

    @PROPERTY
    @given(y=st.lists(st.integers(0, 10**5), min_size=1, max_size=8), phi=st.integers(1, 200))
    def test_lgamma_terms_match_gammaln(self, y, phi):
        # the phi fill against scipy's gammaln: each distinct count's terms
        # within 1e-15 of their parts' magnitude, weighted by its
        # multiplicity, and one ulp for adding C*phi*log(phi)
        data = Dataset(np.zeros(len(y)), y)
        y, mult = data._distinct, data._mult
        parts = (gammaln(y + phi), gammaln(y + 1), gammaln(phi))
        ref = mult @ (parts[0] - parts[1] - parts[2]) + len(data) * phi * math.log(phi)
        bound = 1e-15 * (mult @ sum(np.abs(p) for p in parts)) + math.ulp(ref)
        assert abs(data._phi_terms([phi])[0] - ref) <= bound

    @PROPERTY
    @given(setting_id=st.integers(1, 6), seed=st.integers(0, 2**32), draw=st.data())
    def test_objective_equals_neg_log_likelihood_bitwise(self, setting_id, seed, draw):
        data = generate_dataset(get_setting(setting_id), seed)
        domain = build_domain(data, k_bounds=(-1e4, 1e4))
        objective = make_objective(data)
        for x in draw.draw(st.lists(steep_points(domain), min_size=1, max_size=4)):
            params = decode_position(x)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an exp overflow that is not silenced warns
                assert objective(x) == neg_log_likelihood(params, data)
            tau = sigmoid_mean(data.times, params)
            assert np.array_equal(tau, clamped_sigmoid_mean(data.times, params))

    @PROPERTY
    @given(setting_id=st.integers(1, 6), seed=st.integers(0, 2**32), draw=st.data())
    def test_objectives_of_one_dataset_called_alternately(self, setting_id, seed, draw):
        data = generate_dataset(get_setting(setting_id), seed)
        points = draw.draw(st.lists(steep_points(quiet_domain(data)), min_size=2, max_size=6))
        f, g = make_objective(data), make_objective(data)
        expected = [neg_log_likelihood(decode_position(x), data) for x in points]
        got = [(f if i % 2 else g)(x) for i, x in enumerate(points)]
        got += [(g if i % 2 else f)(x) for i, x in enumerate(points)]
        assert got == expected * 2

    @PROPERTY
    @given(
        c=st.sampled_from([1, 3, 100, _BLOCK_CELLS // 2 - 1, _BLOCK_CELLS - 1, _BLOCK_CELLS + 1]),
        seed=st.integers(0, 2**32),
        draw=st.data(),
    )
    def test_swarm_call_equals_point_calls_bitwise(self, c, seed, draw):
        # C on both sides of _BLOCK_CELLS and n not a multiple of the rows per
        # block; with |k| up to 1e4 and mu down to MU_FLOOR, clamped, floored
        # and plain rows share a block
        rng = np.random.default_rng(seed)
        data = Dataset(rng.random(c), rng.integers(0, 60, c))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # degenerate mu box
            domain = build_domain(data, k_bounds=(-1e4, 1e4))
        rows = max(1, _BLOCK_CELLS // c)
        n = draw.draw(st.integers(1, 3)) if rows == 1 else rows * draw.draw(st.integers(0, 1))
        n += draw.draw(st.integers(1, min(rows - 1, 60))) if rows > 1 else 0
        points = np.array(draw.draw(st.lists(steep_points(domain), min_size=n, max_size=n)))
        objective = make_objective(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an exp overflow that is not silenced warns
            got = objective(points)
            expected = [objective(x) for x in points]
        assert got.shape == (n,)
        assert got.tolist() == expected
        assert expected == [reference_nll(x, data) for x in points]

    def test_nan_row_does_not_hide_a_floored_row(self):
        # the floor test reduces a block with fmin, which skips the nan row's
        # taus; a plain min would be nan and leave the steep row unfloored
        data = generate_dataset(get_setting(4), 1)
        assert _BLOCK_CELLS // len(data) >= 2  # both rows land in one block
        # k and t0 at their tops: exp overflows at t_lo and tau there is 0
        steep = build_domain(data, k_bounds=(-1e4, 1e4)).upper.copy()
        assert sigmoid_mean(data.times, decode_position(steep)).min() == TAU_FLOOR
        nan_k = steep.copy()
        nan_k[0] = math.nan
        objective = make_objective(data)
        for points, i in [([nan_k, steep], 1), ([steep, nan_k], 0)]:
            got = objective(np.array(points))
            assert math.isnan(got[1 - i])
            assert got[i] == objective(steep) == reference_nll(steep, data)

    @PROPERTY
    @given(mu=st.floats(-1e3, 0.0), draw=st.data())
    def test_objective_rejects_nonpositive_mu(self, mu, draw):
        data = generate_dataset(get_setting(draw.draw(st.integers(1, 6))), 1)
        points = draw.draw(st.lists(box_points(quiet_domain(data)), min_size=1, max_size=5))
        i = draw.draw(st.integers(0, len(points) - 1))
        points[i][2] = mu
        with pytest.raises(ValueError, match="mu_g must be positive"):
            make_objective(data)(points[i])
        with pytest.raises(ValueError, match="mu_g must be positive"):
            make_objective(data)(np.array(points))

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_objective_rejects_non_finite_phi(self, phi):
        data = generate_dataset(get_setting(4), 1)
        points = np.tile(quiet_domain(data).upper, (3, 1))
        points[1, 3] = phi
        with pytest.raises(ValueError, match="phi coordinate must be finite"):
            make_objective(data)(points[1])
        with pytest.raises(ValueError, match="phi coordinate must be finite"):
            make_objective(data)(points)

    @PROPERTY
    @given(
        setting_id=st.integers(1, 6),
        phis=st.lists(
            st.floats(-1e3, 1e3) | st.floats(0.0, 1.0) | st.integers(-3, 300).map(lambda k: k + 0.5),
            min_size=1,
            max_size=8,
        ),
    )
    def test_phi_rounding_matches_decode_position(self, setting_id, phis):
        # the objective rounds the dispersion coordinate as a vector; below
        # 0.5 that gives phi <= 0, which is lifted to 1 as in decode_position
        data = generate_dataset(get_setting(setting_id), 1)
        domain = quiet_domain(data)
        points = np.tile((domain.lower + domain.upper) / 2, (len(phis), 1))
        points[:, 3] = phis
        expected = [neg_log_likelihood(decode_position(x), data) for x in points]
        assert make_objective(data)(points).tolist() == expected

    @pytest.mark.parametrize("phi", [1, 7, 200, 2**40 + 1, 2**53])
    def test_phi_terms_shared_by_int_and_float_keys(self, phi):
        data = generate_dataset(get_setting(1), 1)
        fresh = generate_dataset(get_setting(1), 1)
        assert data._phi_terms([phi])[0] == fresh._phi_terms([float(phi)])[0]
        assert data._phi_terms([float(phi)])[0] == data._phi_terms([phi])[0]
        assert len(data._phi_cache) == 1

    @PROPERTY
    @given(data=st.one_of(edge_datasets(), simulated_datasets()), phis=phi_lists())
    def test_phi_terms_do_not_depend_on_fill_order(self, data, phis):
        # the same bytes whether a call fills all its phi, one phi at a time,
        # in reverse order or after a part of them, as phi on its own gives
        expected = np.array([per_phi_terms(data, phi) for phi in phis])
        whole, single, backwards, partial = (Dataset(data.times, data.counts) for _ in range(4))
        got = whole._phi_terms(phis)
        assert got.tobytes() == expected.tobytes()
        assert np.array([single._phi_terms([phi])[0] for phi in phis]).tobytes() == got.tobytes()
        assert backwards._phi_terms(phis[::-1])[::-1].tobytes() == got.tobytes()
        partial._phi_terms(phis[: len(phis) // 2])
        assert partial._phi_terms(phis).tobytes() == got.tobytes()
        for filled in (whole, single, backwards, partial):
            assert len(filled._phi_cache) == len(set(phis))  # 7 and 7.0 are one entry
        got[:] = 0.0  # each call returns a fresh array, which the objective adds into
        assert whole._phi_terms(phis).tobytes() == expected.tobytes()


class TestObjectiveBuffers:
    wide = Dataset(np.linspace(0.0, 1.0, 20_000), np.arange(20_000) % 37)

    def test_call_allocates_no_per_cell_array(self):
        objective = make_objective(self.wide)
        x = np.array([3.0, 0.5, 9.0, 7.0])
        objective(x)  # fills the phi cache
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(5):
                objective(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(self.wide)

    @pytest.mark.parametrize("cells, rows", [(100, 40), (20_000, 10)])
    def test_warm_call_allocates_no_per_cell_row(self, cells, rows):
        # a warm call allocates only per-row arrays (the parameters, the two
        # sums, the phi terms); one row of cells at C = 20000 is 160 KB
        data = Dataset(np.linspace(0.0, 1.0, cells), np.arange(cells) % 37)
        domain = quiet_domain(data)
        points = np.random.default_rng(1).uniform(domain.lower, domain.upper, size=(rows, 4))
        objective = make_objective(data)
        objective(points)  # fills the phi cache
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            objective(points)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8192 + 256 * rows

    def test_swarm_call_allocates_no_swarm_by_cells_array(self):
        # C = 100 gives 40 rows per block.  Every per-cell ufunc of a block
        # runs on operands of the block's shape, so numpy buffers none of
        # them: at n = 40 (one block) a call allocates under half a block of
        # cells; at n = 400 a per-swarm array of cells would be ten times
        # larger than anything the call allocates
        data = generate_dataset(get_setting(6), 1)
        objective = make_objective(data)
        domain = quiet_domain(data)
        points = np.random.default_rng(0).uniform(domain.lower, domain.upper, size=(400, 4))
        peaks = []
        for n in (40, 400):
            objective(points[:n])  # fills the phi cache
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                for _ in range(3):
                    objective(points[:n])
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        block = 8 * (_BLOCK_CELLS // len(data)) * len(data)
        assert peaks[0] < block / 2
        assert peaks[1] < 8 * 400 * len(data) / 2

    def test_phi_fill_peak_follows_distinct_counts_not_the_call(self):
        # a call's missing phi are filled one at a time: one phi's log-gamma
        # terms over the m distinct counts take about 80 bytes per count, and
        # filling the call's 4 phi at once would hold 4 such rows
        m = 10_000
        data = Dataset(np.linspace(0.0, 1.0, m), np.arange(m))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            data._phi_terms([1, 2, 3, 4])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 120 * m

    def test_one_objective_per_thread(self):
        # numpy releases the GIL inside each ufunc, so buffers shared between
        # objectives would be overwritten by another thread mid-evaluation
        rng = np.random.default_rng(0)
        domain = quiet_domain(self.wide)
        points = rng.uniform(domain.lower, domain.upper, size=(40, 4))
        expected = [neg_log_likelihood(decode_position(x), self.wide) for x in points]
        results = {}

        def work(i):
            objective = make_objective(self.wide)
            results[i] = [objective(x) for x in points]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert results == {i: expected for i in range(4)}


class TestBuildDomain:
    def test_boxes_from_data(self):
        data = Dataset(times=[0.0, 0.5, 1.0], counts=[2, 4, 10])
        dom = build_domain(data)
        assert np.array_equal(dom.lower, [-20.0, 0.0, 1.0, 1.0])
        assert np.array_equal(dom.upper, [20.0, 1.0, 5.0, 200.0])

    def test_zero_min_count_guard(self):
        data = Dataset(times=[0.1, 0.2, 0.9], counts=[0, 3, 8])
        dom = build_domain(data)
        assert dom.lower[2] == MU_FLOOR
        assert dom.upper[2] == 4.0

    def test_custom_knobs(self):
        data = Dataset(times=[0.2, 0.8], counts=[2, 6])
        dom = build_domain(data, k_bounds=(-5.0, 5.0), phi_max=40)
        assert dom.lower[0] == -5.0 and dom.upper[0] == 5.0
        assert dom.upper[3] == 40.0

    def test_constant_counts_warn(self):
        data = Dataset(times=[0.1, 0.9], counts=[4, 4])
        with pytest.warns(UserWarning, match="degenerates"):
            dom = build_domain(data)
        assert dom.lower[2] == dom.upper[2] == 2.0

    def test_all_zero_counts_warn(self):
        data = Dataset(times=[0.1, 0.9], counts=[0, 0])
        with pytest.warns(UserWarning):
            dom = build_domain(data)
        assert dom.lower[2] == dom.upper[2] == MU_FLOOR

    def test_invalid_k_bounds(self):
        data = Dataset(times=[0.1], counts=[1])
        with pytest.raises(ValueError):
            build_domain(data, k_bounds=(3.0, 3.0))

    @pytest.mark.parametrize(
        "k_bounds", [(math.nan, 3.0), (-3.0, math.nan), (-math.inf, 3.0), (-3.0, math.inf)]
    )
    def test_non_finite_k_bounds(self, k_bounds):
        data = Dataset(times=[0.1], counts=[1])
        with pytest.raises(ValueError, match="k_bounds must be finite"):
            build_domain(data, k_bounds=k_bounds)

    def test_invalid_phi_max(self):
        data = Dataset(times=[0.1], counts=[1])
        with pytest.raises(ValueError):
            build_domain(data, phi_max=0)


class TestDecodePosition:
    def test_rounds_dispersion_half_up(self):
        assert decode_position([0.0, 0.5, 1.0, 16.6]).phi_g == 17
        assert decode_position([0.0, 0.5, 1.0, 2.5]).phi_g == 3
        assert decode_position([0.0, 0.5, 1.0, 24.6]).phi_g == 25
        assert decode_position([0.0, 0.5, 1.0, 25.4]).phi_g == 25

    def test_clamps_dispersion_at_one(self):
        assert decode_position([0.0, 0.5, 1.0, 0.4]).phi_g == 1

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(phi=st.integers(1, MAX_PHI) | st.sampled_from([1, 2, MAX_PHI - 1, MAX_PHI]))
    def test_integer_coordinates_decode_to_themselves(self, phi):
        assert decode_position([0.0, 0.5, 1.0, float(phi)]).phi_g == phi
        point = np.array([[0.0, 0.5, 1.0, float(phi)]])
        data = Dataset(times=[0.1, 0.5, 0.9], counts=[1, 5, 3])
        expected = neg_log_likelihood(NbParams(0.0, 0.5, 1.0, phi), data)
        assert make_objective(data)(point).tolist() == [expected]

    @pytest.mark.parametrize("phi", [MAX_PHI + 1, MAX_PHI + 0.5, 2**53])
    def test_coordinates_past_max_phi_rejected(self, phi):
        # MAX_PHI + 0.5 would round to MAX_PHI + 1; just below it rounds to MAX_PHI
        data = Dataset(times=[0.1, 0.5, 0.9], counts=[1, 5, 3])
        for reject in (decode_position, make_objective(data)):
            with pytest.raises(ValueError, match="phi coordinate must be finite"):
                reject([0.0, 0.5, 1.0, float(phi)])
        assert decode_position([0.0, 0.5, 1.0, np.nextafter(MAX_PHI + 0.5, 0)]).phi_g == MAX_PHI

    @pytest.mark.parametrize(
        "phi, error", [(math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError)]
    )
    def test_non_finite_dispersion_rejected(self, phi, error):
        with pytest.raises(error, match="phi coordinate must be finite"):
            decode_position([0.0, 0.5, 1.0, phi])

    def test_continuous_coordinates_pass_through(self):
        params = decode_position([7.0, 0.4, 6.0, 25.0])
        assert params == NbParams(7.0, 0.4, 6.0, 25)

    @pytest.mark.parametrize(
        "x", [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0], [[1.0, 2.0, 3.0, 4.0]]]
    )
    def test_rejects_x_that_is_not_one_point(self, x):
        # these raised IndexError, decoded the first four coordinates and
        # raised TypeError, in that order
        with pytest.raises(ValueError, match=r"4 coordinates per point, shape \(4,\),"):
            decode_position(x)


class TestMakeObjective:
    data = Dataset(times=[0.1, 0.4, 0.8], counts=[1, 5, 9])

    def test_composition_identity(self):
        objective = make_objective(self.data)
        x = np.array([3.0, 0.5, 4.0, 12.2])
        assert objective(x) == neg_log_likelihood(decode_position(x), self.data)

    def test_piecewise_constant_in_dispersion(self):
        objective = make_objective(self.data)
        a = objective(np.array([3.0, 0.5, 4.0, 24.6]))
        b = objective(np.array([3.0, 0.5, 4.0, 25.4]))
        assert a == b

    @pytest.mark.parametrize(
        "x",
        [
            [3.0, 0.5, 4.0],
            [3.0, 0.5, 4.0, 12.2, 99.0],
            3.0,
            [[3.0, 0.5, 4.0], [2.0, 0.5, 4.0]],
            np.ones((2, 5)),
            np.ones((1, 2, 4)),
        ],
    )
    def test_rejects_x_without_four_coordinates(self, x):
        with pytest.raises(ValueError, match="4 coordinates"):
            make_objective(self.data)(np.asarray(x))

    def test_point_gives_float_and_stack_gives_vector(self):
        objective = make_objective(self.data)
        points = np.array([[3.0, 0.5, 4.0, 12.2], [-1.0, 0.2, 2.0, 3.5]])
        assert type(objective(points[0])) is float
        assert objective(points).shape == (2,)
        assert objective(points[:1]).shape == (1,)
        assert objective.batched is True

    def test_row_permutation_pointwise(self):
        shuffled = Dataset(self.data.times[::-1], self.data.counts[::-1])
        f, g = make_objective(self.data), make_objective(shuffled)
        for x in ([2.0, 0.3, 3.0, 5.0], [-4.0, 0.9, 1.0, 80.0]):
            assert f(np.asarray(x)) == pytest.approx(g(np.asarray(x)), rel=1e-12)


class TestCsvRoundTrip:
    def test_save_load_identical(self, tmp_path):
        data = generate_dataset(get_setting(4), 3)
        path = tmp_path / "data.csv"
        save_dataset(data, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.times, data.times)
        assert np.array_equal(loaded.counts, data.counts)
        params = NbParams(6.0, 0.4, 5.0, 20)
        assert neg_log_likelihood(params, loaded) == neg_log_likelihood(params, data)

    def test_header_preserved(self, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(Dataset([0.5], [3]), path)
        assert path.read_text().splitlines()[0] == "t,y"

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,count\n0.5,3\n")
        with pytest.raises(ValueError, match="header"):
            load_dataset(path)

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n0.5\n")
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,y\n")
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_row_order_irrelevant(self, tmp_path):
        data = generate_dataset(get_setting(4), 3)
        path = tmp_path / "data.csv"
        save_dataset(data, path)
        lines = path.read_text().splitlines()
        reordered = [lines[0]] + lines[:0:-1]
        path.write_text("\n".join(reordered) + "\n")
        loaded = load_dataset(path)
        params = NbParams(6.0, 0.4, 5.0, 20)
        assert neg_log_likelihood(params, loaded) == pytest.approx(
            neg_log_likelihood(params, data), rel=1e-12
        )
