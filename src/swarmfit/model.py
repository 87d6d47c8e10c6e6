"""Sigmoidal negative-binomial regression of expression counts on pseudotime.

The mean curve is a scaled logistic function of pseudotime,

    tau(t) = 2*mu / (1 + exp(-k*(t - t0)))

so the expected count rises (k > 0) or falls (k < 0) from near 0 to near
2*mu, crossing mu at t = t0.  Counts are negative binomial in the mean
parameterization: mean tau, variance tau + tau^2/phi, with integer
dispersion phi >= 1.  Fitting minimizes the negative log-likelihood over
a box: t0 within the observed pseudotime range, 2*mu within the observed
count range, and user-supplied bounds on k and phi.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .pso import BoxDomain

# Floor on the sigmoid mean: keeps log(tau) finite when the exponential
# saturates, so the objective is finite everywhere on the box.
TAU_FLOOR = 1e-12
# Clamp on the exp argument to avoid overflow at extreme k*(t - t0).
EXP_CLAMP = 700.0
# Lower guard on the mu box when the smallest observed count is 0.
MU_FLOOR = 1e-6
# Largest count accepted: the largest integer a float (the likelihood's copy
# of the counts) holds exactly.
MAX_COUNT = 2**53
# Largest exp argument for which _tau tests whether the floor can bind; well
# below 709.78, where math.exp overflows.
_FLOOR_TEST_MAX = 600.0
# 0-d operands: a ufunc converts a Python float operand on every call, which
# at a few hundred cells costs as much as the arithmetic.
_ONE = np.array(1.0)
_TAU_FLOOR = np.array(TAU_FLOOR)

DEFAULT_K_BOUNDS = (-20.0, 20.0)
DEFAULT_PHI_MAX = 200


@dataclass
class NbParams:
    """Model parameter vector (k_g, t_g, mu_g, phi_g).

    k_g: activation strength (sign gives up- vs down-regulation).
    t_g: activation time, in pseudotime units.
    mu_g: average peak expression; the curve ranges over (0, 2*mu_g).
    phi_g: integer negative-binomial dispersion, >= 1.
    """

    k_g: float
    t_g: float
    mu_g: float
    phi_g: int

    def __post_init__(self):
        self.k_g = float(self.k_g)
        self.t_g = float(self.t_g)
        self.mu_g = float(self.mu_g)
        if not float(self.phi_g).is_integer():
            raise ValueError(f"phi_g must be an integer, got {self.phi_g}")
        self.phi_g = int(self.phi_g)
        if self.mu_g <= 0:
            raise ValueError("mu_g must be positive")
        if self.phi_g < 1:
            raise ValueError("phi_g must be >= 1")


@dataclass(eq=False)
class Dataset:
    """Paired (pseudotime, count) observations for a single gene.

    Immutable after construction.  The likelihood terms free of tau sum to
    one float per integer phi, computed from the distinct counts and their
    multiplicities and cached, so each evaluation only does per-cell work
    that depends on tau.  The pseudotime range (t_lo, t_hi) is kept so an
    evaluation can tell without a pass over the cells whether the sigmoid's
    exp clamp or floor can act.
    """

    times: np.ndarray
    counts: np.ndarray
    _y: np.ndarray = field(init=False, repr=False)
    _span: tuple[float, float] = field(init=False, repr=False)
    _distinct: np.ndarray = field(init=False, repr=False)
    _mult: np.ndarray = field(init=False, repr=False)
    _phi_cache: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        counts = np.asarray(self.counts)
        if self.times.ndim != 1 or counts.ndim != 1:
            raise ValueError("times and counts must be 1-d vectors")
        if self.times.size != counts.size or self.times.size < 1:
            raise ValueError("times and counts must have equal length >= 1")
        if not np.all(np.isfinite(self.times)):
            raise ValueError("times must be finite")
        # range first, while the counts are as given: past 2**63 they are a
        # uint64 or object array, which the int64 cast would wrap and
        # np.isfinite rejects with a TypeError
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if np.any(counts > MAX_COUNT):
            raise ValueError(f"counts must be at most 2**53 = {MAX_COUNT}")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(np.isfinite(counts)) or np.any(counts != np.floor(counts)):
                raise ValueError("counts must be integers")
        self.counts = counts.astype(np.int64)
        self._y = self.counts.astype(float)
        self._span = (float(self.times.min()), float(self.times.max()))
        distinct, mult = np.unique(self.counts, return_counts=True)
        self._distinct = distinct.astype(float)
        self._mult = mult.astype(float)
        self._phi_cache = {}

    def __len__(self) -> int:
        return self.times.size

    def _phi_terms(self, phi: int) -> float:
        """Sum over cells of the terms of log NB(y_c; tau, phi) free of tau."""
        cached = self._phi_cache.get(phi)
        if cached is None:
            lg = float(self._mult @ _lgamma_terms(self._distinct, phi))
            cached = lg + self.times.size * phi * math.log(phi)
            self._phi_cache[phi] = cached
        return cached


def _tau(t, span, k, t0, mu, out):
    """Write the floored sigmoid mean at pseudotimes t into out; return out.

    span is (min t, max t).  z = -k*(t - t0) peaks at an end of that range
    and rounding is monotone, so no element's z exceeds
    reach = |k|*max(t_hi - t0, t0 - t_lo), and the smallest tau is
    2*mu/(1 + exp(z)) where z peaks.  Both guards are skipped exactly when
    reach shows they cannot act: the exp clamp while reach is within
    EXP_CLAMP, the floor while 2*mu/(1 + exp(reach)) is at least
    2*TAU_FLOOR.  The factor 2 keeps that test clear of the last-bit
    differences between math.exp and np.exp; above _FLOOR_TEST_MAX the
    floor is always applied, so math.exp cannot overflow.
    """
    t_lo, t_hi = span
    reach = abs(k) * max(t_hi - t0, t0 - t_lo)
    np.subtract(t, t0, out)
    np.multiply(out, -k, out)
    if reach > EXP_CLAMP:
        np.clip(out, -EXP_CLAMP, EXP_CLAMP, out=out)
    np.exp(out, out)
    np.add(out, _ONE, out)
    np.divide(2.0 * mu, out, out)
    # written so that a nan reach or mu applies the floor
    if not (reach <= _FLOOR_TEST_MAX and 2.0 * mu / (1.0 + math.exp(reach)) >= 2.0 * TAU_FLOOR):
        np.maximum(out, _TAU_FLOOR, out=out)
    return out


def sigmoid_mean(t, params: NbParams):
    """Mean count at pseudotime t; accepts a scalar or an array.

    Floored at TAU_FLOOR so the result is strictly positive even when the
    sigmoid saturates toward 0.
    """
    t = np.asarray(t, dtype=float)
    span = (np.min(t, initial=np.inf), np.max(t, initial=-np.inf))  # t may be empty
    tau = _tau(t, span, params.k_g, params.t_g, params.mu_g, np.empty_like(t))
    return tau[()]


def _lgamma_scalar(v: float) -> float:
    try:
        return math.lgamma(v)
    except (ValueError, OverflowError):  # pole at a non-positive integer, or huge v
        return math.inf


def _lgamma(x):
    """math.lgamma elementwise on a scalar or an array.

    +inf at the non-positive integers, as scipy.special.gammaln gives.
    """
    if np.ndim(x) == 0:
        return _lgamma_scalar(float(x))
    x = np.asarray(x, dtype=float)
    return np.array([_lgamma_scalar(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _lgamma_terms(y, phi):
    """log C(y+phi-1, y) = lgamma(y+phi) - lgamma(y+1) - lgamma(phi)."""
    return _lgamma(y + phi) - _lgamma(y + 1) - _lgamma(phi)


def nb_log_pmf(y, tau, phi):
    """Log-probability of count y under NB(mean=tau, dispersion=phi).

    Computed in log space via log-gamma:

        lgamma(y+phi) - lgamma(y+1) - lgamma(phi)
            + y*log(tau/(tau+phi)) + phi*log(phi/(tau+phi))

    Accepts scalars or arrays (broadcast elementwise).  A negative y is
    outside the support and gives -inf; it is evaluated as 0, because at
    y <= -phi both lgamma(y+phi) and lgamma(y+1) sit on poles and would give
    inf - inf.  This is the one coded copy of the NB log-pmf;
    neg_log_likelihood sums the same terms, regrouped, and shares the
    log-gamma part through _lgamma_terms.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("tau must be positive")
    if phi < 1:
        raise ValueError("phi must be >= 1")
    negative = np.less(y, 0)
    y = np.where(negative, 0, y)
    log_p = (
        _lgamma_terms(y, phi)
        + y * np.log(tau / (tau + phi))
        + phi * np.log(phi / (tau + phi))
    )
    return np.where(negative, -np.inf, log_p)[()]


def _nll_fn(data: Dataset) -> Callable[[float, float, float, int], float]:
    """Bind the NLL to data: returns nll(k, t0, mu, phi).

    nll evaluates in two scratch rows of C floats owned by this binding, so a
    call allocates no per-cell array, and must not run on two threads at once.
    """
    t, span, y, phi_terms = data.times, data._span, data._y, data._phi_terms
    work, scratch = np.empty((2, len(data)))

    def nll(k: float, t0: float, mu: float, phi: int) -> float:
        tau = _tau(t, span, k, t0, mu, work)
        s = float(y.dot(np.log(tau, scratch)))
        phi_ = np.array(float(phi))
        np.add(tau, phi_, tau)
        np.log(tau, tau)
        s_phi = float(np.add(y, phi_, scratch).dot(tau))
        return -(phi_terms(phi) + s - s_phi)

    return nll


def neg_log_likelihood(params: NbParams, data: Dataset) -> float:
    """Negative log-likelihood of the dataset under the given parameters.

    Finite for every valid parameter vector thanks to the sigmoid floor.
    Equals -sum(nb_log_pmf(y_c, tau(t_c), phi)) up to rounding, regrouped
    as the dataset's cached phi-only sum plus the tau-dependent part

        sum(y_c*log(tau_c)) - sum((y_c+phi)*log(tau_c+phi)).
    """
    return _nll_fn(data)(params.k_g, params.t_g, params.mu_g, params.phi_g)


def build_domain(
    data: Dataset,
    k_bounds: tuple[float, float] = DEFAULT_K_BOUNDS,
    phi_max: int = DEFAULT_PHI_MAX,
) -> BoxDomain:
    """Feasible box for the fit, in coordinate order (k, t, mu, phi).

    The t box is the observed pseudotime range and the mu box is half the
    observed count range; k and phi bounds are caller-supplied knobs.  A
    zero minimum count would force mu to 0, so the mu lower bound is
    guarded at MU_FLOOR.
    """
    k_lo, k_hi = float(k_bounds[0]), float(k_bounds[1])
    if not (math.isfinite(k_lo) and math.isfinite(k_hi)):
        raise ValueError(f"k_bounds must be finite, got ({k_lo}, {k_hi})")
    if not k_lo < k_hi:
        raise ValueError("k_bounds must satisfy lower < upper")
    if phi_max < 1:
        raise ValueError("phi_max must be >= 1")
    t_lo, t_hi = data._span
    y_min = int(data.counts.min())
    y_max = int(data.counts.max())
    mu_lo = max(y_min / 2.0, MU_FLOOR)
    mu_hi = y_max / 2.0
    if y_min == y_max:
        warnings.warn(
            "all counts are equal; the mu box degenerates to a point",
            stacklevel=2,
        )
        mu_hi = max(mu_hi, mu_lo)
    return BoxDomain(
        lower=np.array([k_lo, t_lo, mu_lo, 1.0]),
        upper=np.array([k_hi, t_hi, mu_hi, float(phi_max)]),
    )


def decode_position(x) -> NbParams:
    """Map a 4-d search vector to model parameters.

    The first three coordinates pass through; the dispersion coordinate is
    rounded half-up to the nearest integer and clamped below at 1, which
    makes the objective piecewise constant in that coordinate.
    """
    x = np.asarray(x, dtype=float)
    return NbParams(float(x[0]), float(x[1]), float(x[2]), _round_phi(float(x[3])))


def _round_phi(v: float) -> int:
    """Dispersion coordinate -> integer phi: round half up, clamp below at 1."""
    return max(1, math.floor(v + 0.5))


def make_objective(data: Dataset) -> Callable[[np.ndarray], float]:
    """Objective over the 4-d search box: x -> NLL(decode_position(x), data).

    Equal bit for bit to neg_log_likelihood(decode_position(x), data);
    permutation of the dataset rows leaves it unchanged pointwise.  x must
    hold exactly 4 coordinates (ValueError otherwise).  Each objective owns
    the scratch buffers it evaluates in, so a call allocates no per-cell
    array; build one objective per thread.
    """
    nll = _nll_fn(data)

    def objective(x: np.ndarray) -> float:
        try:
            k, t0, mu, phi = np.asarray(x, dtype=float).tolist()
        except (TypeError, ValueError):  # a scalar, or not 4 coordinates
            raise ValueError(f"x must hold 4 coordinates, got shape {np.shape(x)}") from None
        if mu <= 0:
            raise ValueError("mu_g must be positive")
        return nll(k, t0, mu, _round_phi(phi))

    return objective


def save_dataset(data: Dataset, path) -> None:
    """Write the dataset as CSV with header ``t,y``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y"])
        for t, y in zip(data.times, data.counts):
            writer.writerow([repr(float(t)), int(y)])


def load_dataset(path) -> Dataset:
    """Read a ``t,y`` CSV.  Row order is irrelevant to the likelihood."""
    times: list[float] = []
    counts: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t", "y"]:
            raise ValueError(f"{path}: expected CSV header 't,y'")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: malformed row {row!r}")
            times.append(float(row[0]))
            counts.append(int(row[1]))
    if not times:
        raise ValueError(f"{path}: no data rows")
    return Dataset(times=np.array(times), counts=np.array(counts))
