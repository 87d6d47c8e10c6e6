"""Negative-binomial log-pmfs, in the mean parameterization NB(tau, phi),
that the tests hold the library's likelihood against."""

import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from swarmfit.model import Dataset, NbParams, neg_log_likelihood


def rational_log_pmf(y: int, tau: Fraction, phi: int) -> float:
    """Exact-rational evaluation of the NB pmf, then log via integer logs."""
    p = (
        Fraction(math.comb(y + phi - 1, y))
        * Fraction(tau, tau + phi) ** y
        * Fraction(phi, tau + phi) ** phi
    )
    return math.log(p.numerator) - math.log(p.denominator)


def gammaln_log_pmf(y, tau, phi):
    """Per-cell log-pmf from scipy's gammaln; y and tau broadcast.

        gammaln(y+phi) - gammaln(y+1) - gammaln(phi)
            + y*log(tau/(tau+phi)) + phi*log(phi/(tau+phi))
    """
    y = np.asarray(y, dtype=float)
    return (
        gammaln(y + phi) - gammaln(y + 1) - gammaln(phi)
        + y * np.log(tau / (tau + phi))
        + phi * np.log(phi / (tau + phi))
    )


def fit_log_pmf(y: int, tau: float, phi: int) -> float:
    """log NB(y; tau, phi) by the fit's own likelihood: minus the NLL of a
    one-cell dataset at k = 0, where the sigmoid mean 2*mu/(1 + exp(0)) is
    mu exactly."""
    return -neg_log_likelihood(NbParams(0.0, 0.5, tau, phi), Dataset([0.5], [y]))
