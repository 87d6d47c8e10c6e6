"""Seeded generation of synthetic pseudotime count datasets.

Pseudotimes are uniform on [0, 1]; counts are negative binomial around the
sigmoidal mean curve.  Negative-binomial draws use the gamma-Poisson
mixture, which is exact for the mean parameterization: lambda ~
Gamma(shape=phi, scale=tau/phi), then y ~ Poisson(lambda).

All randomness flows through numpy's PCG64 generator seeded explicitly, so
(setting, seed) pins the dataset bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, NbParams, sigmoid_mean


@dataclass(frozen=True)
class Setting:
    """One simulation scenario: sample size plus generating parameters."""

    id: int
    C: int
    k_g: float
    t_g: float
    mu_g: float
    phi_g: int

    @property
    def params(self) -> NbParams:
        return NbParams(self.k_g, self.t_g, self.mu_g, self.phi_g)


_SETTINGS = (
    Setting(id=1, C=400, k_g=7.0, t_g=0.4, mu_g=6.0, phi_g=25),
    Setting(id=2, C=400, k_g=-8.0, t_g=0.85, mu_g=4.0, phi_g=80),
    Setting(id=3, C=400, k_g=1.6, t_g=1.0, mu_g=1.4, phi_g=2),
    Setting(id=4, C=100, k_g=7.0, t_g=0.4, mu_g=6.0, phi_g=25),
    Setting(id=5, C=100, k_g=-8.0, t_g=0.85, mu_g=4.0, phi_g=80),
    Setting(id=6, C=100, k_g=1.6, t_g=1.0, mu_g=1.4, phi_g=2),
)


def builtin_settings() -> list[Setting]:
    """The six built-in simulation scenarios."""
    return list(_SETTINGS)


def get_setting(setting_id: int) -> Setting:
    for setting in _SETTINGS:
        if setting.id == setting_id:
            return setting
    raise ValueError(f"setting must be in 1..6, got {setting_id}")


def sample_pseudotimes(C: int, rng: np.random.Generator) -> np.ndarray:
    """C independent uniform draws on [0, 1]."""
    if C < 1:
        raise ValueError("C must be >= 1")
    return rng.random(C)


def sample_nb(tau, phi: int, rng: np.random.Generator, size=None):
    """Negative-binomial draw(s) with mean tau and dispersion phi.

    Gamma-Poisson mixture; returns a scalar for scalar tau and size=None,
    otherwise an array.  Variance is tau + tau**2/phi.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("tau must be positive")
    if phi < 1:
        raise ValueError("phi must be >= 1")
    lam = rng.gamma(shape=float(phi), scale=tau / phi, size=size)
    return rng.poisson(lam)


def generate_dataset(setting: Setting, seed: int) -> Dataset:
    """Draw one dataset for the given scenario, deterministic in seed."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    rng = np.random.default_rng(seed)
    times = sample_pseudotimes(setting.C, rng)
    tau = sigmoid_mean(times, setting.params)
    counts = sample_nb(tau, setting.phi_g, rng)
    return Dataset(times=times, counts=counts)
