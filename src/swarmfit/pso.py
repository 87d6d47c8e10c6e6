"""Particle swarm optimization over box-constrained domains.

Implements the classic inertia-weight velocity/position dynamics

    v' = w*v + c1*r1*(pbest - x) + c2*r2*(ref - x)
    x' = x + v'

with two ways of choosing the reference point ``ref``: the global-best
topology (every particle is pulled toward the lowest personal best of the
whole swarm) and the local-best topology (each particle is pulled toward
the lowest personal best among its m nearest neighbors by Euclidean
distance on the current positions).  The swarm keeps no record beside the
personal bests: its best is always their minimum.

The swarm is held as arrays with one row per particle, and every stage of
an iteration (random draws, reference selection, velocity and position
updates, evaluation, personal-best refresh) acts on the whole swarm at
once.  An objective takes one point, x (d,) -> float.  One whose
``batched`` attribute is True, as the model's objective is, also takes the
whole swarm, positions (n, d) -> (n,) values, and is called once per
iteration; any other is called once per particle.  Every non-finite value is
then set to +inf.

Out-of-box moves are handled with an absorbing boundary: the offending
coordinate is clamped to the bound and its velocity component is zeroed,
so every evaluated point is feasible.  That holds also where the velocity
update overflows, on a box whose span is near the float maximum: a
coordinate that moves to +-inf or nan is absorbed at a bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

# x (d,) -> float; with a true ``batched`` attribute also (n, d) -> (n,)
Objective = Callable[[np.ndarray], float | np.ndarray]


class Topology(str, Enum):
    GBEST = "gbest"
    LBEST = "lbest"


@dataclass(eq=False)
class BoxDomain:
    """Closed per-dimension bounds defining the feasible search box."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.validate()

    def validate(self) -> None:
        if self.lower.ndim != 1 or self.upper.ndim != 1:
            raise ValueError("domain bounds must be 1-d vectors")
        if self.lower.size != self.upper.size or self.lower.size < 1:
            raise ValueError("lower and upper must have equal length >= 1")
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValueError("domain bounds must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        with np.errstate(over="ignore"):
            span = self.span
        if not np.all(np.isfinite(span)):
            raise ValueError("domain span upper - lower must be finite")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


@dataclass
class SwarmConfig:
    """Tuning parameters for one optimization run.

    ``w``, ``c1`` and ``c2`` are the inertia, cognitive and social
    coefficients.  They must be finite; values outside [0, 2] are unusual
    and trigger a warning at construction rather than an error.  ``m_neighbors`` is only
    consulted by the local-best topology.  The random coefficients r1, r2
    are drawn once per particle and dimension.
    """

    w: float = 0.9
    c1: float = 1.5
    c2: float = 0.3
    n_particles: int = 10
    topology: Topology = Topology.GBEST
    m_neighbors: int = 5
    n_iterations: int = 100
    seed: int = 0

    def __post_init__(self):
        self.topology = Topology(self.topology)
        self.validate()
        for name in ("w", "c1", "c2"):
            value = getattr(self, name)
            if not 0.0 <= value <= 2.0:
                # one warning location, which Python's default filter
                # reports once per process however many configs are built
                warnings.warn(f"{name}={value} is outside the usual [0, 2] range")

    def validate(self) -> None:
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if not 1 <= self.m_neighbors <= self.n_particles:
            raise ValueError(
                f"m_neighbors must be in [1, n_particles], got {self.m_neighbors}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        for name in ("w", "c1", "c2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass(eq=False)
class OptResult:
    """Lowest terminal personal best plus the per-iteration best-value trace."""

    best_position: np.ndarray
    best_value: float
    trace: np.ndarray


@dataclass(eq=False)
class Swarm:
    """Full swarm state, stored as arrays with one row per particle.

    Row i of ``positions``, ``velocities``, ``pbest_positions`` and
    ``pbest_values`` is particle i.  The swarm best is the lowest personal
    best, ``pbest_values.min()``; when several particles tie at that value,
    it is the one with the lowest index.
    """

    positions: np.ndarray        # (n, d)
    velocities: np.ndarray       # (n, d)
    pbest_positions: np.ndarray  # (n, d)
    pbest_values: np.ndarray     # (n,)

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]


def _evaluate_all(objective: Objective, positions: np.ndarray) -> np.ndarray:
    """Objective value of every row of positions, as an (n,) float array.

    A batched objective gets the whole (n, d) array in one call and must
    return (n,) values (ValueError otherwise); any other objective is called
    once per row.  Non-finite values are mapped to +inf so the swarm can
    traverse undefined regions without crashing.
    """
    n = positions.shape[0]
    if getattr(objective, "batched", False):
        values = np.array(objective(positions), dtype=float)
        if values.shape != (n,):
            raise ValueError(
                f"a batched objective must return shape ({n},), got {values.shape}"
            )
    else:
        values = np.fromiter(map(objective, positions), float, n)
    values[~np.isfinite(values)] = np.inf
    return values


def init_swarm(
    domain: BoxDomain,
    config: SwarmConfig,
    objective: Objective,
    rng: np.random.Generator,
) -> Swarm:
    """Draw the initial swarm from rng, the stream that then steps it.

    Positions are uniform inside the box; velocities are uniform in
    +-(range/2) per dimension.  Personal bests start at the initial
    positions.
    """
    n, d = config.n_particles, domain.dim
    positions = rng.uniform(domain.lower, domain.upper, size=(n, d))
    half_span = domain.span / 2.0
    velocities = rng.uniform(-half_span, half_span, size=(n, d))
    return Swarm(
        positions=positions,
        velocities=velocities,
        pbest_positions=positions.copy(),
        pbest_values=_evaluate_all(objective, positions),
    )


def velocity_update(v, x, p_i, p_ref, w, c1, c2, r1, r2) -> np.ndarray:
    """w*v + c1*r1*(p_i - x) + c2*r2*(p_ref - x), elementwise."""
    return w * v + c1 * r1 * (p_i - x) + c2 * r2 * (p_ref - x)


def position_update(x, v_new, domain: BoxDomain):
    """Move to x + v_new with an absorbing boundary.

    Clamped coordinates land exactly on the bound and have their velocity
    component zeroed.  A coordinate whose candidate is nan, as when the
    velocity update overflows to inf - inf on a box whose span is near the
    float maximum, counts as outside and lands on its lower bound; +-inf land
    on the bound they pass.  Returns (position, velocity).
    """
    candidate = x + v_new
    position = np.fmin(np.fmax(candidate, domain.lower), domain.upper)  # nan -> lower
    inside = position == candidate  # only a candidate in the box is left as it is; nan != nan
    velocity = np.where(inside, v_new, 0.0)
    return position, velocity


def select_neighborhood_best(swarm: Swarm, m: int):
    """Best personal-best record among the m nearest particles, for every particle.

    Returns ``(positions (n, d), values (n,))`` whose row i is the reference
    record of particle i.  Neighbors are ranked by Euclidean distance
    between current positions (particle i itself has distance 0 and is
    always included); distance ties and value ties both break toward the
    lower particle index.

    Row i's neighborhood is first taken as every particle whose distance is
    not greater than row i's m-th smallest distance.  That set holds at
    least m particles (a nan distance, from a particle at inf, is never
    greater), and it is exactly the m that a stable ranking puts first
    unless the row ties at its m-th distance or holds a nan.  So when every
    row has exactly m members, these sets are the neighborhoods; otherwise
    every row is ranked by a stable argsort, which breaks the tie toward the
    lower index.
    """
    n = swarm.n_particles
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    # one (n, n) plane of squared differences per dimension, added in
    # dimension order: for d < 8 that is how np.linalg.norm adds over the last
    # axis, so distances and their ties match it bit for bit (from d = 8 numpy
    # adds pairwise and the last bit can differ)
    columns = swarm.positions.T.copy()
    squared = columns[:, None, :] - columns[:, :, None]
    np.multiply(squared, squared, squared)
    distances = squared[0]
    for plane in squared[1:]:
        distances += plane
    np.sqrt(distances, distances)
    # not d <= kth: a row whose m-th distance is nan would get no member, and
    # another row's surplus could hide that from the count
    kth = np.sort(distances, axis=1)[:, m - 1 : m]
    members = np.nonzero(~(distances > kth))[1]
    if members.size == n * m:
        hoods = members.reshape(n, m)
    else:
        hoods = np.sort(np.argsort(distances, axis=1, kind="stable")[:, :m], axis=1)
    # ascending index order inside each neighborhood makes argmin's
    # first-minimum rule break value ties toward the lower index
    best = hoods[np.arange(n), swarm.pbest_values.take(hoods).argmin(axis=1)]
    return swarm.pbest_positions.take(best, axis=0), swarm.pbest_values.take(best)


def step(
    swarm: Swarm,
    objective: Objective,
    domain: BoxDomain,
    config: SwarmConfig,
    rng: np.random.Generator,
) -> Swarm:
    """Advance the swarm one iteration in place (synchronous update).

    Reference points are selected from the state at the start of the
    iteration, all particles then move, and the personal bests are
    refreshed last.  The gbest reference is the lowest personal best,
    lowest index on ties.
    """
    n, d = swarm.positions.shape
    r1 = rng.random((n, d))
    r2 = rng.random((n, d))

    if config.topology is Topology.GBEST:
        p_ref = swarm.pbest_positions[np.argmin(swarm.pbest_values)]
    else:
        p_ref = select_neighborhood_best(swarm, config.m_neighbors)[0]

    v_new = velocity_update(
        swarm.velocities,
        swarm.positions,
        swarm.pbest_positions,
        p_ref,
        config.w,
        config.c1,
        config.c2,
        r1,
        r2,
    )
    positions, velocities = position_update(swarm.positions, v_new, domain)
    values = _evaluate_all(objective, positions)

    swarm.positions = positions
    swarm.velocities = velocities
    improved = values < swarm.pbest_values
    np.copyto(swarm.pbest_positions, positions, where=improved[:, None])
    np.copyto(swarm.pbest_values, values, where=improved)
    return swarm


def optimize(objective: Objective, domain: BoxDomain, config: SwarmConfig) -> OptResult:
    """Run the full PSO loop for a fixed iteration budget.

    Deterministic given ``config.seed``: two runs with identical inputs
    produce identical results.  The returned trace holds the lowest
    personal-best value after each iteration and is monotonically
    non-increasing.  The result is the lowest personal best at the end;
    when several particles tie at that value, the lowest-index one.
    """
    domain.validate()
    config.validate()
    rng = np.random.default_rng(config.seed)
    swarm = init_swarm(domain, config, objective, rng)
    trace = np.empty(config.n_iterations)
    for k in range(config.n_iterations):
        step(swarm, objective, domain, config, rng)
        trace[k] = swarm.pbest_values.min()
    g = int(np.argmin(swarm.pbest_values))
    return OptResult(
        best_position=swarm.pbest_positions[g].copy(),
        best_value=float(swarm.pbest_values[g]),
        trace=trace,
    )
