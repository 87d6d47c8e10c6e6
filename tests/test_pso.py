import math
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from swarmfit import BoxDomain, SwarmConfig, optimize
from swarmfit.pso import (
    MAX_MAGNITUDE,
    Swarm,
    Topology,
    _squared_distances,
    init_swarm,
    position_update,
    select_neighborhood_best,
    step,
    velocity_update,
)

# the next float above the largest magnitude a bound or coefficient may have
PAST_MAX = float(np.nextafter(MAX_MAGNITUDE, math.inf))


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def make_swarm(positions, pbest_values, velocities=None, pbest_positions=None):
    positions = np.asarray(positions, dtype=float)
    if positions.ndim == 1:
        positions = positions[:, None]
    pbest_values = np.asarray(pbest_values, dtype=float)
    if velocities is None:
        velocities = np.zeros_like(positions)
    if pbest_positions is None:
        pbest_positions = positions.copy()
    return Swarm(
        positions=positions,
        velocities=np.asarray(velocities, dtype=float),
        pbest_positions=np.asarray(pbest_positions, dtype=float).reshape(positions.shape),
        pbest_values=pbest_values,
    )


class TestBoxDomain:
    def test_properties(self):
        dom = BoxDomain([0.0, -1.0], [2.0, 3.0])
        assert dom.dim == 2
        assert np.array_equal(dom.span, [2.0, 4.0])
        assert dom.contains([1.0, 0.0])
        assert not dom.contains([1.0, 3.5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BoxDomain([0.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            BoxDomain([], [])

    def test_inverted_bounds(self):
        with pytest.raises(ValueError):
            BoxDomain([0.0, 1.0], [1.0, 0.0])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            BoxDomain([0.0], [np.inf])

    def test_span_overflow(self):
        # a span of 2e308 is inf; such a box is far past the bound
        with pytest.raises(ValueError, match=r"at most 2\*\*256 in magnitude, got -1e\+308"):
            BoxDomain([0.0, -1e308], [1.0, 1e308])

    @pytest.mark.parametrize("bound", [1e300, -1e300, PAST_MAX, -PAST_MAX])
    def test_bounds_past_max_magnitude_rejected(self, bound):
        # on a +-1e300 box the squared lbest distances overflowed to inf
        with pytest.raises(ValueError, match=r"finite and at most 2\*\*256 in magnitude"):
            BoxDomain([min(bound, 0.0)], [max(bound, 0.0)])

    def test_degenerate_allowed(self):
        dom = BoxDomain([3.0], [3.0])
        assert dom.contains([3.0])


class TestSwarmConfig:
    def test_neighbors_exceed_swarm(self):
        # only lbest uses m_neighbors, so only lbest bounds it by the swarm size
        SwarmConfig(n_particles=5, m_neighbors=6)
        with pytest.raises(ValueError, match="m_neighbors"):
            SwarmConfig(n_particles=5, m_neighbors=6, topology="lbest")
        with pytest.raises(ValueError, match="m_neighbors"):
            SwarmConfig(n_particles=5, m_neighbors=0)

    def test_zero_particles(self):
        with pytest.raises(ValueError):
            SwarmConfig(n_particles=0, m_neighbors=1)

    def test_zero_iterations(self):
        with pytest.raises(ValueError):
            SwarmConfig(n_iterations=0)

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            SwarmConfig(seed=-1)
        with pytest.raises(ValueError):
            SwarmConfig(seed=2**64)

    def test_coefficient_warning(self):
        with pytest.warns(UserWarning, match="outside the usual"):
            SwarmConfig(w=2.5)

    @pytest.mark.parametrize("name", ["w", "c1", "c2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coefficient_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SwarmConfig(**{name: value})

    @pytest.mark.parametrize("name", ["w", "c1", "c2"])
    @pytest.mark.parametrize("value", [1e300, -1e300, PAST_MAX, -PAST_MAX, 10**400])
    def test_coefficient_past_max_magnitude_rejected(self, name, value):
        # 10**400 made math.isfinite raise OverflowError
        with pytest.raises(ValueError, match=rf"^{name} must be finite and at most 2\*\*256"):
            SwarmConfig(**{name: value})

    def test_topology_from_string(self):
        cfg = SwarmConfig(topology="lbest")
        assert cfg.topology is Topology.LBEST


class TestInitSwarm:
    def test_bounds_respected(self):
        dom = BoxDomain([0.0], [1.0])
        cfg = SwarmConfig(n_particles=10, seed=11)
        swarm = init_swarm(dom, cfg, sphere, np.random.default_rng(11))
        assert np.all(swarm.positions >= 0.0) and np.all(swarm.positions <= 1.0)
        assert np.all(swarm.velocities >= -0.5) and np.all(swarm.velocities <= 0.5)

    def test_degenerate_domain(self):
        dom = BoxDomain([3.0], [3.0])
        swarm = init_swarm(dom, SwarmConfig(seed=1), sphere, np.random.default_rng(1))
        assert np.all(swarm.positions == 3.0)
        assert np.all(swarm.velocities == 0.0)

    def test_seed_reproducibility(self):
        dom = BoxDomain([-2.0, 0.0], [2.0, 5.0])
        cfg = SwarmConfig(seed=99)
        a = init_swarm(dom, cfg, sphere, np.random.default_rng(99))
        b = init_swarm(dom, cfg, sphere, np.random.default_rng(99))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)
        assert np.array_equal(a.pbest_values, b.pbest_values)
        assert a.pbest_values.min() == b.pbest_values.min()

    def test_personal_best_starts_at_position(self):
        dom = BoxDomain([-1.0, -1.0], [1.0, 1.0])
        swarm = init_swarm(dom, SwarmConfig(seed=5), sphere, np.random.default_rng(5))
        assert np.array_equal(swarm.pbest_positions, swarm.positions)
        for i in range(swarm.n_particles):
            assert swarm.pbest_values[i] == sphere(swarm.positions[i])

    def test_non_finite_objective_maps_to_inf(self):
        dom = BoxDomain([0.0], [1.0])
        swarm = init_swarm(dom, SwarmConfig(seed=2), lambda x: float("nan"),
                           np.random.default_rng(2))
        assert np.all(np.isinf(swarm.pbest_values))
        # all-inf swarm: no personal best ever improves, and the lowest index
        # holds the (degenerate) best
        result = optimize(lambda x: float("nan"), dom, SwarmConfig(seed=2))
        assert result.best_value == np.inf
        assert np.array_equal(result.best_position, swarm.positions[0])


def batched(fn):
    fn.batched = True
    return fn


class TestBatchedObjective:
    def test_one_call_per_evaluation_and_same_run_as_row_calls(self):
        shapes = []

        @batched
        def linear(x):
            shapes.append(np.shape(x))
            return x[..., 0] * 3.0 - x[..., 1]

        dom = BoxDomain([-1.0, -1.0], [1.0, 1.0])
        cfg = SwarmConfig(n_particles=6, m_neighbors=3, n_iterations=8, topology="lbest", seed=4)
        swarm_run = optimize(linear, dom, cfg)
        assert shapes == [(6, 2)] * 9
        row_run = optimize(lambda x: float(linear(x)), dom, cfg)
        assert np.array_equal(swarm_run.trace, row_run.trace)
        assert swarm_run.best_position.tobytes() == row_run.best_position.tobytes()

    @pytest.mark.parametrize(
        "result", [lambda n: np.zeros(n + 1), lambda n: np.zeros((n, 1)), lambda n: 0.0]
    )
    def test_wrong_result_shape_rejected(self, result):
        objective = batched(lambda x: result(x.shape[0]))
        config = SwarmConfig(n_particles=4, m_neighbors=2)
        with pytest.raises(ValueError, match=r"must return shape \(4,\)"):
            init_swarm(BoxDomain([0.0], [1.0]), config, objective, np.random.default_rng(0))

    def test_non_finite_values_map_to_inf_per_element(self):
        objective = batched(lambda x: np.where(x[:, 0] > 0.5, np.nan, x[:, 0]))
        swarm = init_swarm(BoxDomain([0.0], [1.0]), SwarmConfig(seed=5), objective,
                           np.random.default_rng(5))
        x = swarm.positions[:, 0]
        assert 0 < np.count_nonzero(x > 0.5) < x.size
        assert np.array_equal(swarm.pbest_values, np.where(x > 0.5, np.inf, x))


class TestVelocityUpdate:
    def test_stationary_consensus(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=3)
        v = np.zeros(3)
        out = velocity_update(v, x, x, x, 1.3, 0.7, 0.2, rng.random(3), rng.random(3))
        assert np.array_equal(out, np.zeros(3))

    def test_pure_inertia(self):
        v = np.array([1.0, 2.0])
        x = np.array([5.0, -3.0])
        out = velocity_update(v, x, x + 1, x - 2, 1.0, 0.0, 0.0, 0.5, 0.5)
        assert np.array_equal(out, v)

    def test_hand_computed_value(self):
        # w*v + c1*r1*(p_i-x) + c2*r2*(p_ref-x)
        #   = 0.9*1 + 1.5*0.5*2 + 0.3*0.5*4 = 3.0
        out = velocity_update(
            np.array([1.0]), np.array([0.0]), np.array([2.0]), np.array([4.0]),
            0.9, 1.5, 0.3, np.array([0.5]), np.array([0.5]),
        )
        assert out[0] == pytest.approx(3.0, abs=1e-15)

    def test_matches_per_dimension_loop(self):
        rng = np.random.default_rng(42)
        v, x, p_i, p_ref = (rng.normal(size=5) for _ in range(4))
        r1, r2 = rng.random(5), rng.random(5)
        out = velocity_update(v, x, p_i, p_ref, 0.9, 1.5, 0.3, r1, r2)
        for j in range(5):
            expected = 0.9 * v[j] + 1.5 * r1[j] * (p_i[j] - x[j]) + 0.3 * r2[j] * (p_ref[j] - x[j])
            assert out[j] == expected


class TestPositionUpdate:
    dom = BoxDomain([0.0], [5.0])

    def test_interior_move(self):
        pos, vel = position_update(np.array([1.0]), np.array([2.0]), self.dom)
        assert pos[0] == 3.0 and vel[0] == 2.0

    def test_upper_clamp_zeroes_velocity(self):
        pos, vel = position_update(np.array([4.0]), np.array([3.0]), self.dom)
        assert pos[0] == 5.0 and vel[0] == 0.0

    def test_lower_clamp_zeroes_velocity(self):
        pos, vel = position_update(np.array([0.5]), np.array([-1.0]), self.dom)
        assert pos[0] == 0.0 and vel[0] == 0.0

    def test_mixed_dimensions(self):
        dom = BoxDomain([0.0, 0.0], [5.0, 5.0])
        pos, vel = position_update(np.array([1.0, 4.0]), np.array([1.5, 3.0]), dom)
        assert np.array_equal(pos, [2.5, 5.0])
        assert np.array_equal(vel, [1.5, 0.0])

    def test_non_finite_candidate_absorbed(self):
        # no step inside the bound makes such a candidate; passed one, it is absorbed
        dom = BoxDomain([0.0, 0.0, 0.0], [5.0, 5.0, 5.0])
        v_new = np.array([math.nan, math.inf, -math.inf])
        pos, vel = position_update(np.array([1.0, 1.0, 1.0]), v_new, dom)
        assert np.array_equal(pos, [0.0, 5.0, 0.0])
        assert np.array_equal(vel, [0.0, 0.0, 0.0])


@st.composite
def huge_boxes(draw):
    """(domain, config): d in 1..4 with bounds and w, c1, c2 up to
    +-MAX_MAGNITUDE, the largest accepted.  The edges are drawn often: the
    velocity grows largest with both the widest box and the largest
    coefficients."""
    d = draw(st.integers(1, 4))
    magnitude = st.sampled_from([-MAX_MAGNITUDE, MAX_MAGNITUDE]) | st.floats(
        -MAX_MAGNITUDE, MAX_MAGNITUDE
    )
    bounds = [sorted(draw(st.lists(magnitude, min_size=2, max_size=2))) for _ in range(d)]
    n = draw(st.integers(1, 20))
    coefficient = st.sampled_from([2.0, MAX_MAGNITUDE]) | magnitude
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # outside the usual [0, 2]
        config = SwarmConfig(
            w=draw(coefficient),
            c1=draw(coefficient),
            c2=draw(coefficient),
            n_particles=n,
            topology=draw(st.sampled_from(list(Topology))),
            m_neighbors=draw(st.integers(1, n)),
            n_iterations=50,
            seed=draw(st.integers(0, 2**32)),
        )
    return BoxDomain(*zip(*bounds)), config


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=huge_boxes())
def test_every_evaluated_position_is_finite_and_in_the_box(case):
    domain, config = case
    seen = []

    def scattered(x):
        # personal bests that jump across the box keep particles swinging
        # from face to face, where the velocity is largest
        seen.append(x.copy())
        return float(zlib.crc32(x.tobytes()) % 1000)

    # no swarm step overflows inside the bound: a numpy warning fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        optimize(scattered, domain, config)
    seen = np.array(seen)
    assert np.isfinite(seen).all()
    assert (seen >= domain.lower).all() and (seen <= domain.upper).all()


def gbest_reference_used(swarm):
    """Index of the personal best that one gbest step pulled every particle
    toward, recovered by replaying the step's velocity rule per candidate."""
    n, d = swarm.positions.shape
    dom = BoxDomain([-100.0] * d, [100.0] * d)
    cfg = SwarmConfig(n_particles=n, m_neighbors=1, seed=0)
    x0, v0, pb0 = swarm.positions.copy(), swarm.velocities.copy(), swarm.pbest_positions.copy()
    step(swarm, lambda x: 1e9, dom, cfg, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    r1, r2 = rng.random((n, d)), rng.random((n, d))
    used = [
        j for j in range(n)
        if np.array_equal(
            swarm.velocities, velocity_update(v0, x0, pb0, pb0[j], cfg.w, cfg.c1, cfg.c2, r1, r2)
        )
    ]
    assert len(used) == 1
    return used[0]


class TestGlobalBestReference:
    """step's gbest reference is pbest_positions[argmin(pbest_values)]."""

    def test_argmin(self):
        swarm = make_swarm([0.0, 1.0, 2.0], [3.0, 1.0, 2.0], pbest_positions=[5.0, 6.0, 7.0])
        assert gbest_reference_used(swarm) == 1

    def test_tie_breaks_to_lowest_index(self):
        swarm = make_swarm([0.0, 1.0, 2.0], [2.0, 2.0, 5.0], pbest_positions=[5.0, 6.0, 7.0])
        assert gbest_reference_used(swarm) == 0

    def test_singleton(self):
        swarm = make_swarm([7.0], [4.0], pbest_positions=[5.0])
        assert gbest_reference_used(swarm) == 0


def norm_neighborhood_best(swarm, m):
    """Reference: one np.linalg.norm over the (n, n, d) differences, then the
    same stable ranking and lowest-index tie-breaks."""
    p = swarm.positions
    distances = np.linalg.norm(p[None] - p[:, None], axis=2)
    hoods = np.sort(np.argsort(distances, axis=1, kind="stable")[:, :m], axis=1)
    best = hoods[np.arange(len(p)), np.argmin(swarm.pbest_values[hoods], axis=1)]
    return swarm.pbest_positions[best], swarm.pbest_values[best]


@st.composite
def lbest_swarms(draw):
    """(swarm, m) with n in 1..50, d in 1..7 and m in 1..n drawn uniformly
    (hypothesis would favour small n and m at 1 or n).  Positions are real, on a
    small integer grid (exact distance ties), real with duplicated rows,
    coordinate permutations of one real row (distances equal in exact
    arithmetic that rounding may split), or on a grid with +-inf (inf and nan
    distances); pbest values may repeat."""
    kind = draw(st.sampled_from(["real", "grid", "duplicated", "permuted", "infinite"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = int(rng.integers(1, 51)), int(rng.integers(1, 8))
    if kind == "grid":
        positions = rng.integers(-2, 3, size=(n, d)).astype(float)
    elif kind == "infinite":
        positions = rng.choice([-math.inf, 0.0, 1.0, math.inf], size=(n, d))
    elif kind == "permuted":
        row = rng.normal(size=d)
        positions = np.array([rng.permutation(row) for _ in range(n)])
        positions[rng.random(n) < 0.2] = 0.0
    else:
        positions = rng.normal(size=(n, d)) * rng.uniform(1e-3, 1e3, size=d)
        if kind == "duplicated":
            positions[rng.integers(0, n, n // 2)] = positions[rng.integers(0, n, n // 2)]
    if draw(st.booleans()):
        values = rng.integers(0, 3, size=n).astype(float)
    else:
        values = rng.random(n)
    swarm = make_swarm(positions, values, pbest_positions=rng.normal(size=(n, d)))
    return swarm, int(rng.integers(1, n + 1))


class TestSquaredDistances:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), d=st.integers(1, 12), n=st.sampled_from([1, 2]) | st.integers(1, 12))
    def test_planes_are_added_in_dimension_order(self, data, d, n):
        # an axis-0 reduce adds the planes in order, not pairwise: byte for
        # byte the loop it replaced
        columns = data.draw(arrays(float, (d, n), elements=st.floats(-1e6, 1e6)))
        diff = columns[:, None, :] - columns[:, :, None]
        expected = diff[0] * diff[0]
        for plane in diff[1:]:
            expected += plane * plane
        assert _squared_distances(columns).tobytes() == expected.tobytes()


class TestSelectNeighborhoodBest:
    def test_distance_ranked_neighborhood(self):
        swarm = make_swarm([0.0, 1.0, 2.0, 10.0], [5.0, 4.0, 3.0, 0.0])
        pos, val = select_neighborhood_best(swarm, 2)
        assert val[0] == 4.0 and pos[0, 0] == 1.0

    def test_full_neighborhood_equals_global(self):
        rng = np.random.default_rng(3)
        swarm = make_swarm(rng.normal(size=(6, 3)), rng.random(6))
        pos, val = select_neighborhood_best(swarm, 6)
        g = int(np.argmin(swarm.pbest_values))
        gpos, gval = swarm.pbest_positions[g], swarm.pbest_values[g]
        for i in range(6):
            assert val[i] == gval and np.array_equal(pos[i], gpos)

    def test_self_neighborhood(self):
        rng = np.random.default_rng(4)
        swarm = make_swarm(rng.normal(size=(5, 2)), rng.random(5))
        pos, val = select_neighborhood_best(swarm, 1)
        for i in range(5):
            assert val[i] == swarm.pbest_values[i]
            assert np.array_equal(pos[i], swarm.pbest_positions[i])

    def test_against_brute_force(self):
        rng = np.random.default_rng(8)
        swarms = [make_swarm(rng.normal(size=(8, 3)), rng.random(8))]
        # tie-heavy: duplicate points on a small integer grid (equal
        # distances) and few distinct personal-best values (equal values)
        for n, d in [(12, 2), (15, 1), (9, 3)]:
            grid = rng.integers(0, 3, size=(n, d)).astype(float)
            values = rng.integers(0, 3, size=n).astype(float)
            swarms.append(make_swarm(grid, values, pbest_positions=rng.normal(size=(n, d))))
        for swarm in swarms:
            n = swarm.n_particles
            ranked = [
                sorted(
                    range(n),
                    key=lambda j: (np.linalg.norm(swarm.positions[j] - swarm.positions[i]), j),
                )
                for i in range(n)
            ]
            for m in range(1, n + 1):
                pos, val = select_neighborhood_best(swarm, m)
                assert pos.shape == swarm.positions.shape and val.shape == (n,)
                for i in range(n):
                    hood = ranked[i][:m]
                    expect = min(hood, key=lambda j: (swarm.pbest_values[j], j))
                    assert val[i] == swarm.pbest_values[expect]
                    assert np.array_equal(pos[i], swarm.pbest_positions[expect])

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(case=lbest_swarms())
    def test_matches_norm_reference(self, case):
        swarm, m = case
        with np.errstate(invalid="ignore"):  # inf - inf on the "infinite" kind
            pos, val = select_neighborhood_best(swarm, m)
            ref_pos, ref_val = norm_neighborhood_best(swarm, m)
        assert pos.tobytes() == ref_pos.tobytes()
        assert val.tobytes() == ref_val.tobytes()

    def test_stable_argsort_runs_only_on_a_tie_at_the_mth_distance(self, monkeypatch):
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
        rng = np.random.default_rng(6)
        select_neighborhood_best(make_swarm(rng.normal(size=(12, 3)), rng.random(12)), 4)
        assert calls == []
        # on a unit grid the two neighbors of an inner point tie at m = 2
        select_neighborhood_best(make_swarm(np.arange(6.0), rng.random(6)), 2)
        assert calls == [1]

    def test_nan_mth_distance(self):
        # a particle at inf is at nan distance from itself and from particles
        # sharing its infinite coordinates; row 0 is all nan, so no distance
        # is at most its m-th, while row 3 has two at inf
        inf = math.inf
        swarm = make_swarm(
            [[-inf, -inf], [-inf, 0.0], [-inf, 0.0], [1.0, -inf]],
            [3.0, 2.0, 1.0, 0.0],
            pbest_positions=np.arange(8.0).reshape(4, 2),
        )
        with np.errstate(invalid="ignore"):
            pos, val = select_neighborhood_best(swarm, 1)
            ref_pos, ref_val = norm_neighborhood_best(swarm, 1)
        assert pos.tobytes() == ref_pos.tobytes()
        assert val.tobytes() == ref_val.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=lbest_swarms())
    def test_neighborhoods_keep_when_scaled_to_the_bound(self, case):
        """Scaled by a power of two, up to MAX_MAGNITUDE, a finite swarm keeps
        its neighborhoods, and no distance overflows."""
        swarm, m = case
        top = np.abs(swarm.positions).max()
        assume(np.isfinite(top) and top > 0)
        scaled = make_swarm(np.ldexp(swarm.positions, 256 - np.frexp(top)[1]),
                            swarm.pbest_values, pbest_positions=swarm.pbest_positions)
        assert np.abs(scaled.positions).max() < MAX_MAGNITUDE
        pos, val = select_neighborhood_best(swarm, m)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scaled_pos, scaled_val = select_neighborhood_best(scaled, m)
        assert pos.tobytes() == scaled_pos.tobytes()
        assert val.tobytes() == scaled_val.tobytes()

    def test_m_out_of_range(self):
        swarm = make_swarm([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            select_neighborhood_best(swarm, 3)
        with pytest.raises(ValueError):
            select_neighborhood_best(swarm, 0)


class TestStep:
    def test_fixed_point_at_minimizer(self):
        dom = BoxDomain([-1.0, -1.0], [1.0, 1.0])
        cfg = SwarmConfig(n_particles=4, m_neighbors=2, seed=0)
        positions = np.zeros((4, 2))
        swarm = make_swarm(positions, np.zeros(4))
        rng = np.random.default_rng(5)
        step(swarm, sphere, dom, cfg, rng)
        assert np.array_equal(swarm.positions, positions)
        assert np.array_equal(swarm.velocities, np.zeros((4, 2)))
        assert swarm.pbest_values.min() == 0.0

    def test_best_never_degrades(self):
        dom = BoxDomain([-5.0, -5.0], [5.0, 5.0])
        cfg = SwarmConfig(seed=21)
        rng = np.random.default_rng(21)
        swarm = init_swarm(dom, cfg, sphere, rng)
        previous = swarm.pbest_values.min()
        for _ in range(30):
            step(swarm, sphere, dom, cfg, rng)
            assert swarm.pbest_values.min() <= previous
            previous = swarm.pbest_values.min()

    def test_gbest_matches_lbest_with_full_neighborhood(self):
        dom = BoxDomain([-5.0, -5.0], [5.0, 5.0])
        n = 10
        cfg_g = SwarmConfig(n_particles=n, topology=Topology.GBEST, seed=13)
        cfg_l = SwarmConfig(n_particles=n, topology=Topology.LBEST, m_neighbors=n, seed=13)
        rng_g = np.random.default_rng(13)
        rng_l = np.random.default_rng(13)
        sw_g = init_swarm(dom, cfg_g, sphere, rng_g)
        sw_l = init_swarm(dom, cfg_l, sphere, rng_l)
        for _ in range(20):
            step(sw_g, sphere, dom, cfg_g, rng_g)
            step(sw_l, sphere, dom, cfg_l, rng_l)
            assert np.array_equal(sw_g.positions, sw_l.positions)
            assert np.array_equal(sw_g.velocities, sw_l.velocities)
            assert np.array_equal(sw_g.pbest_values, sw_l.pbest_values)
            assert sw_g.pbest_values.min() == sw_l.pbest_values.min()

    def test_single_neighbor_reduces_to_personal_update(self):
        # with m=1 the reference point is the particle's own best, so the
        # velocity rule collapses to w*v + (c1*r1 + c2*r2)*(pbest - x)
        dom = BoxDomain([-5.0, -5.0], [5.0, 5.0])
        n, d = 6, 2
        cfg = SwarmConfig(n_particles=n, topology=Topology.LBEST, m_neighbors=1, seed=17)
        rng = np.random.default_rng(17)
        rng_ref = np.random.default_rng(17)
        swarm = init_swarm(dom, cfg, sphere, rng)
        rng_ref.random((n, d))  # consume the init draws
        rng_ref.random((n, d))
        for _ in range(10):
            pos, val = select_neighborhood_best(swarm, 1)
            for i in range(n):
                assert val[i] == swarm.pbest_values[i]
                assert np.array_equal(pos[i], swarm.pbest_positions[i])
            x0 = swarm.positions.copy()
            v0 = swarm.velocities.copy()
            pb0 = swarm.pbest_positions.copy()
            step(swarm, sphere, dom, cfg, rng)

            r1 = rng_ref.random((n, d))
            r2 = rng_ref.random((n, d))
            v_new = cfg.w * v0 + (cfg.c1 * r1 + cfg.c2 * r2) * (pb0 - x0)
            positions, velocities = position_update(x0, v_new, dom)
            np.testing.assert_allclose(swarm.positions, positions, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(swarm.velocities, velocities, rtol=1e-12, atol=1e-12)

    def test_containment_with_outward_objective(self):
        # objective rewards running away; clamping must keep everything inside
        dom = BoxDomain([-1.0, -2.0], [1.5, 2.0])
        cfg = SwarmConfig(seed=31)
        rng = np.random.default_rng(31)
        flee = lambda x: -float(np.sum(x**2))
        swarm = init_swarm(dom, cfg, flee, rng)
        for _ in range(50):
            step(swarm, flee, dom, cfg, rng)
            assert np.all(swarm.positions >= dom.lower)
            assert np.all(swarm.positions <= dom.upper)

    def test_personal_best_dominates_current_value(self):
        dom = BoxDomain([-5.0, -5.0], [5.0, 5.0])
        cfg = SwarmConfig(seed=37)
        rng = np.random.default_rng(37)
        swarm = init_swarm(dom, cfg, sphere, rng)
        for _ in range(25):
            step(swarm, sphere, dom, cfg, rng)
            for i in range(swarm.n_particles):
                assert swarm.pbest_values[i] <= sphere(swarm.positions[i]) + 1e-12


class TestOptimize:
    def test_quadratic_against_grid_search(self):
        dom = BoxDomain([0.0], [1.0])
        objective = lambda x: float((x[0] - 0.3) ** 2)
        result = optimize(objective, dom, SwarmConfig(seed=12))
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-6)
        grid_best = float(np.min((grid - 0.3) ** 2))
        assert result.best_value < 1e-4
        assert result.best_value >= grid_best - 1e-12

    def test_constant_objective(self):
        dom = BoxDomain([0.0, 0.0], [1.0, 1.0])
        result = optimize(lambda x: 7.0, dom, SwarmConfig(seed=2))
        assert result.best_value == 7.0
        assert np.all(result.trace == 7.0)

    def test_deterministic(self):
        dom = BoxDomain([-5.0, -5.0], [5.0, 5.0])
        cfg = SwarmConfig(seed=1234)
        a = optimize(sphere, dom, cfg)
        b = optimize(sphere, dom, cfg)
        assert np.array_equal(a.best_position, b.best_position)
        assert a.best_value == b.best_value
        assert np.array_equal(a.trace, b.trace)

    def test_trace_monotone_and_terminal(self):
        dom = BoxDomain([-5.0, -5.0], [5.0, 5.0])
        cfg = SwarmConfig(n_iterations=60, seed=77)
        result = optimize(sphere, dom, cfg)
        assert result.trace.shape == (60,)
        assert np.all(np.diff(result.trace) <= 0.0)
        assert result.best_value == result.trace[-1]

    def test_tie_reports_lowest_index(self):
        # plateau at the minimum: replay the run step by step and check that a
        # higher-index particle reached 0.0 first, then that the result is the
        # lowest-index particle's personal best, not the first to get there
        dom = BoxDomain([0.0], [1.0])
        plateau = lambda x: max(0.9 - float(x[0]), 0.0)
        cfg = SwarmConfig(n_particles=4, m_neighbors=1, n_iterations=20, seed=1)
        rng = np.random.default_rng(cfg.seed)
        swarm = init_swarm(dom, cfg, plateau, rng)
        first = None
        for _ in range(cfg.n_iterations):
            if first is None and swarm.pbest_values.min() == 0.0:
                first = int(np.argmin(swarm.pbest_values))
            step(swarm, plateau, dom, cfg, rng)
        lowest = int(np.argmin(swarm.pbest_values))
        assert first is not None and lowest < first
        assert swarm.pbest_positions[lowest, 0] != swarm.pbest_positions[first, 0]

        result = optimize(plateau, dom, cfg)
        assert np.array_equal(result.best_position, swarm.pbest_positions[lowest])
        assert result.best_value == result.trace[-1] == 0.0

    def test_lbest_converges_on_sphere(self):
        dom = BoxDomain([-5.0, -5.0], [5.0, 5.0])
        cfg = SwarmConfig(topology=Topology.LBEST, seed=6)
        result = optimize(sphere, dom, cfg)
        assert result.best_value < 1e-2

    def test_huge_box_overflow_is_silent_but_the_objectives_warnings_show(self):
        # w = c1 = c2 = 2 on the widest boxes accepted: no swarm step
        # overflows, and step silences nothing, so the objective's own
        # overflow warning is the only one
        dom = BoxDomain([0.0, -MAX_MAGNITUDE], [MAX_MAGNITUDE, MAX_MAGNITUDE])
        cfg = SwarmConfig(w=2.0, c1=2.0, c2=2.0, n_particles=20, topology="lbest",
                          m_neighbors=3, n_iterations=50, seed=1)
        calls = []

        def loud(x):
            calls.append(1)
            if len(calls) > cfg.n_particles:  # inside step, not init_swarm
                np.float64(1e300) * np.float64(1e300)
            return float(zlib.crc32(x.tobytes()) % 1000)

        with pytest.warns(RuntimeWarning, match="overflow") as caught:
            optimize(loud, dom, cfg)
        assert {str(w.message) for w in caught} == {"overflow encountered in scalar multiply"}

    def test_escapes_non_finite_region(self):
        dom = BoxDomain([0.0], [1.0])

        def holey(x):
            if x[0] < 0.5:
                return float("nan")
            return (x[0] - 0.7) ** 2

        result = optimize(holey, dom, SwarmConfig(seed=8))
        assert math.isfinite(result.best_value)
        assert result.best_value < 1e-3
