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

from .pso import MAX_MAGNITUDE, BoxDomain

# Floor on the sigmoid mean: keeps log(tau) finite when the exponential
# saturates or overflows, so the objective is finite everywhere on the box.
TAU_FLOOR = 1e-12
# Lower guard on the mu box when the smallest observed count is 0.
MU_FLOOR = 1e-6
# Largest count accepted.  The objective's sum((y + phi)*log(tau + phi)) -
# sum(y*log(tau)) cancels at large counts: on the two-cell counts [1, Y] at
# mu = Y/2, k up to +-20 and phi up to 200, the NLL was within 2.6e-9 relative
# of an exact 40-digit reference at Y = 2**24 - 1 and 2**24, near its accuracy
# at MAX_PHI, and off by 1.0 relative at Y = 2**53.
MAX_COUNT = 2**24
# Largest dispersion accepted.  The phi-only sum C*phi*log(phi) cancels against
# sum((y + phi)*log(tau + phi)): against an exact 40-digit reference the NLL was
# within 1.6e-9 relative at phi = 2**20 on the six settings' data, off by up to
# 2.6 at 2**40, and 0 or below at 2**52.  From phi = 10**6 the NB variance
# tau + tau**2/phi is Poisson's within 0.1% for tau <= 1000.
MAX_PHI = 2**20
# 0-d operands: a ufunc converts a Python float operand on every call, which
# at a few hundred cells costs as much as the arithmetic.
_ONE = np.array(1.0)
_TAU_FLOOR = np.array(TAU_FLOOR)
# Maps the columns (k, t0, mu) to the sigmoid's operands (-k, t0, 2*mu); both
# products are exact.
_PAR_SCALE = np.array([[-1.0], [1.0], [2.0]])
# Cells per row block of a swarm evaluation.  Each (2, rows, C) stack of a
# block is then 64 KB: under glibc's 128 KB mmap threshold, so it is not
# unmapped and faulted in again, and it stays in L2.  4096 to 16384 timed
# alike at C = 100 and C = 400, 2048 was 7-14% slower.  Above C = 2048 a
# block is one row.
_BLOCK_CELLS = 4096

DEFAULT_K_BOUNDS = (-20.0, 20.0)
DEFAULT_PHI_MAX = 200


def _aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """Uninitialised float array whose data starts on a 64-byte boundary.

    numpy's exp and log ran up to a fifth faster on such an array than on one
    that starts mid cache line (C = 20000); malloc only promises 16 bytes.
    """
    size = math.prod(shape)
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + size].reshape(shape)


@dataclass(frozen=True)
class NbParams:
    """Model parameter vector (k_g, t_g, mu_g, phi_g), all finite; immutable.

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
        for name in ("k_g", "t_g", "mu_g"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if not float(self.phi_g).is_integer():
            raise ValueError(f"phi_g must be an integer, got {self.phi_g}")
        object.__setattr__(self, "phi_g", int(self.phi_g))
        if self.mu_g <= 0:
            raise ValueError("mu_g must be positive")
        if self.phi_g < 1:
            raise ValueError("phi_g must be >= 1")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Paired (pseudotime, count) observations for a single gene.

    Immutable: times, counts and the private arrays below are read-only.
    The likelihood terms free of tau sum to one float per integer phi,
    computed from the distinct counts, their multiplicities and their
    lgamma(y + 1) row, made once, and cached as needed, so an evaluation
    (make_objective) only does per-cell work that depends on tau.  times is
    held in a 64-byte-aligned copy (see _aligned_empty), counts as int64.
    """

    times: np.ndarray
    counts: np.ndarray
    _distinct: np.ndarray = field(init=False, repr=False)
    _mult: np.ndarray = field(init=False, repr=False)
    _lgamma_y1: np.ndarray = field(init=False, repr=False)
    _phi_cache: dict = field(init=False, repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        counts = np.asarray(self.counts)
        if times.ndim != 1 or counts.ndim != 1:
            raise ValueError("times and counts must be 1-d vectors")
        if times.size != counts.size or times.size < 1:
            raise ValueError("times and counts must have equal length >= 1")
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        # range first, while the counts are as given: past 2**63 they are a
        # uint64 or object array, which the int64 cast would wrap and
        # np.isfinite rejects with a TypeError
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if np.any(counts > MAX_COUNT):
            raise ValueError(f"counts must be at most 2**24 = {MAX_COUNT}, "
                             "up to which the likelihood is accurate to about 1e-9 relative")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(np.isfinite(counts)) or np.any(counts != np.floor(counts)):
                raise ValueError("counts must be integers")
        counts = counts.astype(np.int64)
        t = _aligned_empty(times.shape)
        t[:] = times
        distinct, mult = np.unique(counts, return_counts=True)
        distinct = distinct.astype(float)
        lgamma_y1 = np.array([math.lgamma(v) for v in (distinct + 1).tolist()])
        arrays = {"times": t, "counts": counts, "_distinct": distinct,
                  "_mult": mult.astype(float), "_lgamma_y1": lgamma_y1}
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "_phi_cache", {})

    def __len__(self) -> int:
        return self.times.size

    def _phi_terms(self, phis: list) -> np.ndarray:
        """Sums over cells of the terms of log NB(y_c; tau, phi) free of tau,
        one per phi of the list, in a fresh array.  Each phi is an integer, as
        an int or a float; the two share one cache entry (7 == 7.0 and hash
        alike) and give the same value up to 2**53.  A missing phi is filled
        on its own from one row of lgamma(y + phi) over the distinct counts,
        as lgamma(y + phi) - lgamma(y + 1) - lgamma(phi), the log of the
        binomial coefficient C(y + phi - 1, y).  math.lgamma is finite on
        that domain: integers y >= 0 and phi >= 1, both at most 2**53.
        """
        try:
            return np.fromiter(map(self._phi_cache.__getitem__, phis), float, len(phis))
        except KeyError:
            for phi in set(phis) - self._phi_cache.keys():
                terms = np.array([math.lgamma(v) for v in (self._distinct + phi).tolist()])
                terms -= self._lgamma_y1
                terms -= math.lgamma(phi)
                lg = float(self._mult @ terms)
                self._phi_cache[phi] = lg + self.times.size * phi * math.log(phi)
        return np.fromiter(map(self._phi_cache.__getitem__, phis), float, len(phis))


def _tau(t, neg_k, t0, two_mu, out):
    """Write the sigmoid mean at pseudotimes t into out; return out.

    neg_k, t0 and two_mu broadcast against t, one row of out per parameter
    row.  The caller silences overflow: z = -k*(t - t0) or exp(z) may reach
    +inf, where tau is 0 and the floor lifts it; at z = -inf, tau is 2*mu.
    The floor is applied only when some tau is below it, which is exact,
    since flooring a tau at or above TAU_FLOOR changes nothing.  fmin skips
    nan, so a nan row cannot hide another row's need for the floor.
    """
    np.subtract(t, t0, out)
    np.multiply(out, neg_k, out)
    np.exp(out, out)
    np.add(out, _ONE, out)
    np.divide(two_mu, out, out)
    if np.fmin.reduce(out, axis=None, initial=np.inf) < TAU_FLOOR:
        np.maximum(out, _TAU_FLOOR, out=out)
    return out


def sigmoid_mean(t, params: NbParams):
    """Mean count at pseudotime t; accepts a scalar or an array.

    Floored at TAU_FLOOR so the result is strictly positive even when the
    sigmoid saturates toward 0 or exp overflows.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        return _tau(t, -params.k_g, params.t_g, 2.0 * params.mu_g, np.empty_like(t))[()]


def neg_log_likelihood(params: NbParams, data: Dataset) -> float:
    """Negative log-likelihood of the dataset under the given parameters.

    The objective of make_objective(data) at (k_g, t_g, mu_g, phi_g), so it
    applies the objective's phi rule: phi_g above MAX_PHI (2**20) raises
    ValueError.  Finite for every valid parameter vector thanks to the
    sigmoid floor.  It is minus the sum over cells of

        log NB(y; tau, phi) = lgamma(y+phi) - lgamma(y+1) - lgamma(phi)
            + y*log(tau/(tau+phi)) + phi*log(phi/(tau+phi)),

    regrouped as make_objective sums it.
    """
    return make_objective(data)([params.k_g, params.t_g, params.mu_g, float(params.phi_g)])


def check_fit_bounds(k_bounds, phi_max) -> tuple[float, float]:
    """Check the caller-supplied k bounds and phi_max of the fit box; return
    the k bounds as floats.

    The k bounds lie within +-MAX_MAGNITUDE (2**256), as every BoxDomain
    bound does.  phi_max is an integer in [1, MAX_PHI], as an int or an
    integral float: the box top is a phi the decoder gives, and up to MAX_PHI
    (2**20) the likelihood keeps its stated accuracy.
    ExperimentConfig calls this when it is built, before any data is made
    or read, and build_domain calls it for callers that pass bounds directly.
    """
    k_lo, k_hi = float(k_bounds[0]), float(k_bounds[1])
    if not (abs(k_lo) <= MAX_MAGNITUDE and abs(k_hi) <= MAX_MAGNITUDE):  # BoxDomain's rule
        raise ValueError(f"k_bounds must be finite and at most 2**256 in magnitude, "
                         f"got ({k_lo}, {k_hi})")
    if not k_lo < k_hi:
        raise ValueError("k_bounds must satisfy lower < upper")
    if phi_max < 1:
        raise ValueError("phi_max must be >= 1")
    if phi_max > MAX_PHI:
        raise ValueError(f"phi_max must be at most 2**20 = {MAX_PHI}, "
                         "up to which the likelihood is accurate to about 1e-9 relative")
    if not float(phi_max).is_integer():  # nan fails both comparisons above
        raise ValueError(f"phi_max must be an integer, got {phi_max}")
    return k_lo, k_hi


def build_domain(
    data: Dataset,
    k_bounds: tuple[float, float] = DEFAULT_K_BOUNDS,
    phi_max: int = DEFAULT_PHI_MAX,
) -> BoxDomain:
    """Feasible box for the fit, in coordinate order (k, t, mu, phi).

    The t box is the observed pseudotime range and the mu box is half the
    observed count range; k and phi bounds are caller-supplied knobs.  A
    zero minimum count would force mu to 0, so the mu lower bound is
    guarded at MU_FLOOR.  The k bounds and phi_max are checked by
    check_fit_bounds.
    """
    k_lo, k_hi = check_fit_bounds(k_bounds, phi_max)
    t_lo, t_hi = float(data.times.min()), float(data.times.max())
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


def _check_points(x, max_ndim: int) -> np.ndarray:
    """x as a float array of 4-coordinate points of at most max_ndim dimensions;
    ValueError for another shape, a ragged nesting or a point whose k, t0 or mu
    is not finite or whose mu <= 0, as NbParams rejects it."""
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError):  # a ragged nesting of coordinates
        raise ValueError("x must hold 4 coordinates per point") from None
    if x.shape[-1:] != (4,) or x.ndim > max_ndim:
        shapes = "(4,)" if max_ndim == 1 else "(4,) or (n, 4)"
        raise ValueError(f"x must hold 4 coordinates per point, shape {shapes}, got {x.shape}")
    if not (np.isfinite(x[..., :3]).all() and (x[..., 2] > 0).all()):
        raise ValueError("k_g, t_g and mu_g must be finite and mu_g must be positive")
    return x


def decode_position(x) -> NbParams:
    """Map one search point, shape (4,), to model parameters.

    x is checked as the objective checks a point (_check_points).  The first
    three coordinates pass through; the dispersion coordinate is rounded by
    _round_phi, which makes the objective piecewise constant in it, and
    raises ValueError for one that is not finite or rounds past MAX_PHI.
    """
    x = _check_points(x, 1)
    return NbParams(float(x[0]), float(x[1]), float(x[2]), int(_round_phi(x[3:4])[0]))


def _round_phi(v, out=None):
    """Dispersion coordinates (n,) -> integer phis, held as floats, in out
    if given: round half up, clamp below at 1.  ValueError unless each is
    finite and rounds to at most MAX_PHI, that is, lies below MAX_PHI + 0.5."""
    if not (np.minimum.reduce(v, initial=np.inf) > -np.inf
            and np.maximum.reduce(v, initial=-np.inf) < MAX_PHI + 0.5):
        raise ValueError(f"the phi coordinate must be finite and round to at most {MAX_PHI}")
    return np.maximum(np.floor(v + 0.5), _ONE, out=out)


def make_objective(data: Dataset) -> Callable[[np.ndarray], float | np.ndarray]:
    """Objective over the 4-d search box: x -> NLL(decode_position(x), data).

    x is one point, shape (4,), which gives a float, or a stack of points,
    shape (n, 4), which gives their (n,) values; ValueError for another
    shape, a non-finite k, t0 or mu, mu <= 0 or a phi that _round_phi rejects
    (see _check_points).  Each point's value is the same bit for bit either
    way, equals neg_log_likelihood(decode_position(x), data) and is unchanged
    by permuting the dataset's rows.  ``batched`` is True: pso evaluates a
    swarm in one call.

    The value is -(phi_terms + sum(y*log(tau)) - sum((y + phi)*log(tau + phi))),
    phi_terms being the dataset's cached phi-only sum.  Points run in blocks of
    max(1, _BLOCK_CELLS // C) rows in two (2, rows, C) stacks this objective
    owns, so a call allocates no per-cell array; build one per thread.  logs
    gets tau and tau + phi, ys the counts (filled here, exact as floats) and
    y + phi, so one np.log and one np.vecdot, a 1-d BLAS ddot per (plane, row),
    serve a block, and a row's value does not depend on its block, as it would
    under a matrix product.  Blocks of several rows run on (rows, C) operands,
    since a (rows, 1) or (C,) operand makes numpy build a broadcasting iterator
    and buffer the block per call; a one-row block runs on 1-d views with 0-d
    operands, which need none.
    """
    t, phi_terms = data.times, data._phi_terms
    rows = max(1, _BLOCK_CELLS // len(data))
    logs, ys = _aligned_empty((2, rows, len(data))), _aligned_empty((2, rows, len(data)))
    ys[0] = data.counts
    if rows > 1:
        full_t = _aligned_empty((rows, len(data)))
        full_t[:] = t
        full_par = _aligned_empty((4, rows, len(data)))

    def objective(x: np.ndarray) -> float | np.ndarray:
        x = _check_points(x, 2)
        points = x.reshape(-1, 4)
        n = len(points)
        par = np.empty((4, n))  # rows -k, t0, 2*mu, phi
        np.multiply(points[:, :3].T, _PAR_SCALE, par[:3])
        _round_phi(points[:, 3], par[3])
        sums = np.empty((2, n))
        with np.errstate(over="ignore"):  # see _tau
            for r0 in range(0, n, rows):
                r1 = r0 + rows
                logs_b, ys_b = logs[:, : n - r0], ys[:, : n - r0]
                # numpy runs 1-d rows with scalar operands without its
                # broadcasting iterator, which saves about 4% at C = 20000
                if len(ys_b[0]) == 1:
                    (tau, tau_phi), (y_r, y_phi) = logs_b[:, 0], ys_b[:, 0]
                    (neg_k, t_mid, two_mu, phi_r), t_r = par[:, r0], t
                else:
                    (tau, tau_phi), (y_r, y_phi) = logs_b, ys_b
                    np.copyto(full_par[:, : n - r0], par[:, r0:r1, None])
                    (neg_k, t_mid, two_mu, phi_r), t_r = full_par[:, : n - r0], full_t[: n - r0]
                _tau(t_r, neg_k, t_mid, two_mu, tau)
                np.add(tau, phi_r, tau_phi)
                np.log(logs_b, logs_b)
                np.add(y_r, phi_r, y_phi)
                np.vecdot(ys_b, logs_b, out=sums[:, r0:r1])
        values = phi_terms(par[3].tolist())
        values += sums[0]
        values -= sums[1]
        np.negative(values, values)
        return values if x.ndim == 2 else float(values[0])

    objective.batched = True
    return objective


def save_dataset(data: Dataset, path) -> None:
    """Write the dataset as CSV with header ``t,y``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y"])
        for t, y in zip(data.times, data.counts):
            writer.writerow([repr(float(t)), int(y)])


def load_dataset(path) -> Dataset:
    """Read a ``t,y`` CSV of plain numbers.  Row order is irrelevant to the
    likelihood.  An error names the file, and a bad row its line."""
    times: list[float] = []
    counts: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t", "y"]:
            raise ValueError(f"{path}: expected CSV header 't,y'")
        try:
            for row in filter(None, reader):  # blank lines are skipped
                if len(row) != 2:
                    raise ValueError(f"malformed row {row!r}")
                if "_" in row[0] + row[1] or not (row[0] + row[1]).isascii():
                    # int() and float() read 1_0 as 10 and a non-ASCII digit (U+0665) as 5
                    raise ValueError(f"fields must be plain numbers, got row {row!r}")
                times.append(float(row[0]))
                counts.append(int(row[1]))
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not times:
        raise ValueError(f"{path}: no data rows")
    try:
        return Dataset(times=np.array(times), counts=np.array(counts))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
