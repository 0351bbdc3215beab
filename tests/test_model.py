"""Geometry, kernels, rate fields, and the death-rate law."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from contpop import (
    Box,
    CompetitionKernel,
    ModelParams,
    RateField,
    SimulationState,
    Window,
    cell_infimum,
)
from conftest import brute_death_rate, gaussian_unit_kernel, make_params
from reference_engine import scalar_field, scalar_profile, views


# ---------------------------------------------------------------- geometry

def test_box_basics():
    box = Box([0.0, -1.0], [2.0, 3.0])
    assert box.dimension == 2
    assert np.allclose(box.sides, [2.0, 4.0])
    assert box.volume == pytest.approx(8.0)
    inside = box.contains_points([[1.0, 0.0], [2.5, 0.0], [0.5, 0.0],
                                  [3.0, 0.0]])
    assert inside.tolist() == [True, False, True, False]


def test_box_separation_box_is_centered_difference_set():
    box = Box([0.0], [0.5])
    sep = box.separation_box()
    assert np.allclose(sep.lo, [-0.5])
    assert np.allclose(sep.hi, [0.5])


def distance(window, x, y):
    """The norm of `Window.displacement`: minimum image on a torus."""
    return float(np.linalg.norm(window.displacement(x, y)))


def test_window_periodic_minimum_image():
    win = Window([10.0])
    assert win.displacement(9.5, 0.5) == pytest.approx(1.0)
    assert distance(win, 9.5, 0.5) == pytest.approx(1.0)
    assert distance(win, 0.0, 5.0) == pytest.approx(5.0)


def test_window_distance_is_torus_metric(rng):
    win = Window([7.0, 3.0])
    pts = rng.uniform(0.0, [7.0, 3.0], size=(12, 2))
    for _ in range(40):
        i, j, k = rng.integers(0, 12, size=3)
        dij = distance(win, pts[i], pts[j])
        assert dij == pytest.approx(distance(win, pts[j], pts[i]))
        assert dij <= distance(win, pts[i], pts[k]) \
            + distance(win, pts[k], pts[j]) + 1e-12


def test_window_validation():
    with pytest.raises(ValueError):
        Window([0.0])
    with pytest.raises(ValueError):
        Window([1.0], boundary="reflecting")
    with pytest.raises(ValueError):
        Window([1.0], boundary="periodic", buffer_width=0.5)
    with pytest.raises(ValueError):
        Window([1.0], boundary="absorbing-buffer", buffer_width=0.0)


def test_absorbing_buffer_domain_pads_core():
    win = Window([4.0], boundary="absorbing-buffer", buffer_width=1.0)
    assert np.allclose(win.core.lo, [0.0])
    assert np.allclose(win.domain.lo, [-1.0])
    assert np.allclose(win.domain.hi, [5.0])
    # plain Euclidean distances, no wrap
    assert distance(win, 0.0, 3.9) == pytest.approx(3.9)


# ----------------------------------------------------------------- kernels

GAUSS_INTEGRALS = {1: math.sqrt(2.0 * math.pi), 2: 2.0 * math.pi,
                   3: (2.0 * math.pi) ** 1.5}
EXP_INTEGRALS = {1: 2.0, 2: 2.0 * math.pi, 3: 8.0 * math.pi}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_kernel_norms(dim):
    amp, scale = 0.7, 1.3
    k = CompetitionKernel("gaussian", dim, amp, scale)
    exact = amp * GAUSS_INTEGRALS[dim] * scale**dim
    assert k.integral == pytest.approx(exact, rel=1e-6)
    assert k.sup == pytest.approx(amp)
    assert not k.discontinuous


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exponential_kernel_norms(dim):
    amp, scale = 2.0, 0.6
    k = CompetitionKernel("exponential", dim, amp, scale)
    exact = amp * EXP_INTEGRALS[dim] * scale**dim
    assert k.integral == pytest.approx(exact, rel=1e-6)
    assert k.sup == pytest.approx(amp)


@pytest.mark.parametrize("dim,ball", [(1, 2.0), (2, math.pi), (3, 4.0 * math.pi / 3.0)])
def test_top_hat_kernel_exact_norms(dim, ball):
    with pytest.warns(UserWarning, match="discontinuous"):
        k = CompetitionKernel("top-hat", dim, 3.0, 0.5)
    assert k.discontinuous
    assert k.integral == pytest.approx(3.0 * ball * 0.5**dim)
    assert k.sup == pytest.approx(3.0)
    assert k.r_cut == pytest.approx(0.5)


def test_kernel_truncation_tail():
    k = CompetitionKernel("gaussian", 1, 1.0, 1.0)
    # the enforced cutoff really zeroes the tail
    assert k.radial(k.r_cut * 1.001) == 0.0
    assert k.profile(k.r_cut * 1.001) > 0.0
    # and discards at most a 1e-8 fraction of the mass
    assert k.integral == pytest.approx(math.sqrt(2 * math.pi), rel=1e-7)


def test_kernel_symmetry_and_nonnegativity(rng):
    k = gaussian_unit_kernel(2)
    u = rng.normal(size=(50, 2))
    vals = k(u)
    assert np.all(vals >= 0.0)
    assert np.allclose(vals, k(-u))


def test_explicit_r_cut_is_honored():
    k = CompetitionKernel("gaussian", 1, 1.0, 1.0, r_cut=2.0)
    assert k.r_cut == 2.0
    assert k.radial(2.1) == 0.0
    # integral over [-2, 2] of exp(-r^2/2)
    exact = math.sqrt(2 * math.pi) * math.erf(2.0 / math.sqrt(2.0))
    assert k.integral == pytest.approx(exact, rel=1e-6)


def test_zero_kernel():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = CompetitionKernel("gaussian", 3)
    assert k.integral == 0.0
    assert k.sup == 0.0
    assert k.r_cut == 0.0
    assert np.all(k(np.zeros((4, 3))) == 0.0)


def test_tabulated_kernel():
    r = [0.0, 1.0, 2.0]
    a = [1.0, 0.5, 0.0]
    k = CompetitionKernel("tabulated", 1, r_table=r, a_table=a)
    assert k.profile(0.5) == pytest.approx(0.75)
    assert k.integral == pytest.approx(2.0 * (0.75 + 0.25), rel=1e-6)
    assert k.sup == pytest.approx(1.0)


def test_tabulated_kernel_validation():
    with pytest.raises(ValueError):
        CompetitionKernel("tabulated", 1, r_table=[0.5, 1.0],
                          a_table=[1.0, 0.0])  # must start at 0
    with pytest.raises(ValueError):
        CompetitionKernel("tabulated", 1, r_table=[0.0, 0.0],
                          a_table=[1.0, 1.0])  # not increasing
    with pytest.raises(ValueError):
        CompetitionKernel("tabulated", 1, r_table=[0.0, 1.0],
                          a_table=[1.0, -0.1])


def test_kernel_validation():
    with pytest.raises(ValueError):
        CompetitionKernel("gaussian", 1, -1.0, 1.0)
    with pytest.raises(ValueError):
        CompetitionKernel("gaussian", 1, 1.0, 0.0)
    with pytest.raises(ValueError):
        CompetitionKernel("lorentzian", 1)
    with pytest.raises(ValueError):
        CompetitionKernel("gaussian", 4, 1.0, 1.0)


def test_cell_infimum_gaussian_examples():
    k = CompetitionKernel("gaussian", 1, 1.0, 1.0)
    # infimum over [0, 0.5] sits at the far corner r = 0.5
    assert cell_infimum(k, Box([0.0], [0.5])) == pytest.approx(math.exp(-0.125))
    assert cell_infimum(k, Box([-1.0], [1.0])) == pytest.approx(math.exp(-0.5))


def test_cell_infimum_clamps_to_zero():
    with pytest.warns(UserWarning):
        k = CompetitionKernel("top-hat", 1, 1.0, 0.5)
    assert cell_infimum(k, Box([-1.0], [1.0])) == 0.0


def test_cell_infimum_finds_a_tabulated_dip_between_grid_points():
    # a(r) is 0 at r = 0.31 only, between the points 0.297 and 0.312 of an
    # inclusive 65-point grid over [-0.5, 0.5], which read a(0.3125) = 0.0132
    k = CompetitionKernel("tabulated", 1, r_table=[0.0, 0.3, 0.31, 0.5],
                          a_table=[1.0, 1.0, 0.0, 1.0])
    assert k.r_cut == 0.5
    assert cell_infimum(k, Box([-0.5], [0.5])) == 0.0


def test_cell_infimum_of_a_box_off_the_origin():
    # an increasing profile takes its infimum at the box's nearest radius
    k = CompetitionKernel("tabulated", 2, r_table=[0.0, 1.0],
                          a_table=[0.0, 1.0])
    assert cell_infimum(k, Box([0.2, 0.1], [0.5, 0.4])) == \
        pytest.approx(math.hypot(0.2, 0.1))
    assert cell_infimum(k, Box([-0.3, 0.1], [0.5, 0.4])) == pytest.approx(0.1)


def _fine_grid(box, points):
    axes = [np.linspace(lo, hi, points) for lo, hi in zip(box.lo, box.hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


@pytest.mark.parametrize("kernel, box", [
    (CompetitionKernel("tabulated", 2, r_table=[0.0, 0.3, 0.31, 0.5],
                       a_table=[1.0, 1.0, 0.0, 1.0]),
     Box([-0.4, -0.4], [0.4, 0.4])),
    (CompetitionKernel("tabulated", 3, r_table=[0.0, 0.2, 0.6],
                       a_table=[0.5, 2.0, 1.0]),
     Box([-0.3, -0.1, 0.0], [0.2, 0.3, 0.25])),
    (CompetitionKernel("gaussian", 2, 1.0, 0.3),
     Box([-0.5, -0.5], [0.5, 0.5])),
    (CompetitionKernel("exponential", 3, 2.0, 0.2), Box([0.1] * 3, [0.4] * 3)),
], ids=["tabulated-dip-2d", "tabulated-3d", "gaussian-2d", "exponential-3d"])
def test_cell_infimum_is_a_lower_bound_over_the_box(kernel, box):
    inf = cell_infimum(kernel, box)
    assert 0.0 <= inf <= float(np.min(kernel(_fine_grid(box, 61))))


# ------------------------------------------------------------- rate fields

def test_constant_field():
    f = RateField.constant(2.5, 2)
    assert f([0.3, 0.4]) == pytest.approx(2.5)
    assert f.sup == pytest.approx(2.5)
    assert f.integral_over(Box([0.0, 0.0], [2.0, 3.0])) == pytest.approx(15.0)


def test_constant_field_rejects_negative():
    with pytest.raises(ValueError):
        RateField.constant(-0.1, 1)


def test_rate_field_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown rate field kind 'bogus'"):
        RateField("bogus", 1)


def test_gaussian_bump_field():
    box = Box([0.0], [10.0])
    f = RateField.gaussian_bump(2.0, [5.0], 1.0, box)
    assert f([5.0]) == pytest.approx(2.0)
    assert f.sup == pytest.approx(2.0, rel=1e-6)
    exact = 2.0 * math.sqrt(2 * math.pi)  # essentially all mass inside
    assert f.integral_over(box) == pytest.approx(exact, rel=1e-4)


def _quadrature(field, box):
    """The field's integral over `box` by scipy's adaptive cubature, over
    the part of the box within 40 widths of the centre (the bump underflows
    to 0.0 beyond), with the point nearest the centre a breakpoint."""
    lo = np.maximum(box.lo, field.center - 40.0 * field.width)
    hi = np.minimum(box.hi, field.center + 40.0 * field.width)
    result = scipy.integrate.cubature(
        field, lo, hi, points=[np.clip(field.center, lo, hi)], rtol=1e-9,
        atol=0.0, max_subdivisions=100000)
    assert result.status == "converged"
    return result.estimate


# each bump is narrower than the pitch of a midpoint grid of 2**13, 2**7 or
# 2**5 points per axis over its box
BUMPS = {
    "1d-off-centre": (2.0, [700.03], 0.1, Box([0.0], [2000.0])),
    "1d-far-tail": (1.0, [0.0], 0.1, Box([1.0], [2.0])),
    "2d-centred-outside": (1.5, [-0.05, 17.3], 0.1,
                           Box([0.0, 0.0], [40.0, 40.0])),
    "3d-narrow": (1.0, [5.0, 5.0, 5.0], 0.1, Box([0.0] * 3, [10.0] * 3)),
    "3d-off-centre": (1.0, [4.13, 5.0, 9.97], 0.1, Box([0.0] * 3, [10.0] * 3)),
}


@pytest.mark.parametrize("name", sorted(BUMPS))
def test_bump_integral_matches_quadrature(name):
    amplitude, center, width, box = BUMPS[name]
    f = RateField.gaussian_bump(amplitude, center, width, box)
    assert f.integral_over(box) == pytest.approx(_quadrature(f, box),
                                                 rel=1e-8)


def test_birth_total_of_a_narrow_bump():
    window = Window([10.0] * 3)
    bump = RateField.gaussian_bump(2.0, [5.0] * 3, 0.1, window.domain)
    params = ModelParams(window, CompetitionKernel("gaussian", 3), bump,
                         RateField.constant(0.0, 3))
    assert params.birth_total == pytest.approx(
        2.0 * (0.1 * math.sqrt(2.0 * math.pi)) ** 3, rel=1e-12)


@pytest.mark.parametrize("center, box, points", [
    ([-0.3, 0.51], Box([0.0, 0.0], [1.0, 1.0]), 401),
    ([0.37, 1.2, -0.1], Box([0.0] * 3, [1.0] * 3), 61),
], ids=["2d", "3d"])
def test_bump_sup_outside_the_box_is_the_value_at_its_nearest_point(
        center, box, points):
    # centred outside its box, a bump peaks at the box point nearest the
    # centre, which no grid need hold
    f = RateField.gaussian_bump(1.0, center, 0.2, box)
    assert f.sup == float(f(np.clip(center, box.lo, box.hi)))
    assert f.sup >= float(np.max(f(_fine_grid(box, points))))


def test_bump_center_needs_one_coordinate_per_axis():
    # a 1-vector centre would broadcast over a 2-D window in __call__ but
    # not in the simulator's scalar evaluator
    with pytest.raises(ValueError, match="center must list 2"):
        RateField.gaussian_bump(1.0, [5.0], 1.0, Box([0.0, 0.0], [10.0, 10.0]))


def test_tabulated_field_integral_exact():
    box = Box([0.0], [4.0])
    f = RateField.tabulated([1.0, 2.0, 0.0, 3.0], box)
    assert f.integral_over(box) == pytest.approx(6.0)
    assert f([0.5]) == pytest.approx(1.0)
    assert f([1.5]) == pytest.approx(2.0)
    assert f.sup == pytest.approx(3.0)


# ------------------------------------------------- scalar evaluators

def test_scalar_kernel_profiles_match_profile():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        kernels = [CompetitionKernel("gaussian", 1, 1.3, 0.4),
                   CompetitionKernel("exponential", 2, 0.7, 0.3),
                   CompetitionKernel("top-hat", 3, 0.5, 1.0),
                   CompetitionKernel("tabulated", 1,
                                     r_table=[0.0, 0.5, 1.0, 1.5],
                                     a_table=[1.0, 0.8, 0.3, 0.1])]
    radii = np.concatenate([np.linspace(0.0, 2.0, 401),
                            [0.5, 1.0, 1.5, 1.5000001]])
    for k in kernels:
        scalar = scalar_profile(k)
        got = np.array([scalar(float(r)) for r in radii])
        np.testing.assert_allclose(got, k.profile(radii), rtol=1e-15,
                                   atol=0.0, err_msg=k.kind)


def test_scalar_fields_match_vectorised(rng):
    box = Box([0.0, -1.0], [4.0, 2.0])
    fields = [RateField.constant(0.7, 2),
              RateField.gaussian_bump(1.5, [1.0, 0.5], 0.8, box),
              RateField.tabulated(rng.random((3, 5)), box)]
    points = rng.uniform([-1.0, -2.0], [5.0, 3.0], size=(300, 2))
    for field in fields:
        scalar = scalar_field(field)
        got = np.array([scalar(p.tolist()) for p in points])
        np.testing.assert_allclose(got, field(points), rtol=1e-15,
                                   atol=0.0, err_msg=field.kind)


# ------------------------------------------------------------ model params

def test_params_caches_norms(torus10):
    k = gaussian_unit_kernel(1)
    p = ModelParams(torus10, k, RateField.constant(1.5, 1),
                    RateField.constant(0.5, 1), theta0=0.2)
    assert p.b_norm == pytest.approx(1.5)
    assert p.m_norm == pytest.approx(0.5)
    assert p.a_integral == pytest.approx(1.0, rel=1e-6)
    assert p.a_sup == pytest.approx(1.0)
    assert p.birth_total == pytest.approx(15.0)
    assert p.theta0 == 0.2


def test_params_rejects_wrap_self_interaction():
    win = Window([1.0])
    wide = CompetitionKernel("gaussian", 1, 1.0, 1.0)  # r_cut ~ 6 >> 0.5
    with pytest.raises(ValueError, match="r_cut"):
        make_params(window=win, kernel=wide)


def test_params_dimension_mismatch():
    with pytest.raises(ValueError):
        ModelParams(Window([5.0]), CompetitionKernel("gaussian", 2),
                    RateField.constant(1.0, 1), RateField.constant(1.0, 1))
    with pytest.raises(ValueError):
        ModelParams(Window([5.0]), CompetitionKernel("gaussian", 1),
                    RateField.constant(1.0, 2), RateField.constant(1.0, 1))


def test_params_buffer_must_cover_kernel_range():
    win = Window([5.0], boundary="absorbing-buffer", buffer_width=0.5)
    k = CompetitionKernel("gaussian", 1, 1.0, 1.0)
    with pytest.raises(ValueError, match="buffer"):
        make_params(window=win, kernel=k)


# -------------------------------------------------------------- death rate

def engine_rates(params, positions):
    """The simulator's death rates after inserting `positions` in order."""
    state = SimulationState(params, np.random.default_rng(0))
    for x in positions:
        state.insert(x)
    return views(state).rate.copy()


def test_death_rate_matches_brute_force(rng, torus10):
    params = make_params(window=torus10, kernel=gaussian_unit_kernel(1),
                         b=1.0, m=0.3)
    pos = rng.uniform(0.0, 10.0, size=(14, 1))
    rates = engine_rates(params, pos)
    for i in range(len(pos)):
        expect = brute_death_rate(i, pos, params)
        assert rates[i] == pytest.approx(expect, rel=1e-12)


def test_coincident_particles_compete(torus10):
    k = gaussian_unit_kernel(1)
    params = make_params(window=torus10, kernel=k, m=0.0)
    pos = np.array([[4.0], [4.0]])
    # each twin sees the other's a(0) = 1, not its own
    assert engine_rates(params, pos).tolist() == pytest.approx([1.0, 1.0])


@settings(max_examples=25, deadline=None)
@given(shift=st.floats(-30.0, 30.0), n=st.integers(2, 10),
       seed=st.integers(0, 2**32 - 1))
def test_death_rates_translation_invariant(shift, n, seed):
    gen = np.random.default_rng(seed)
    win = Window([10.0, 10.0])
    params = make_params(window=win, kernel=gaussian_unit_kernel(2), m=0.4)
    pos = gen.uniform(0.0, 10.0, size=(n, 2))
    moved = np.mod(pos + shift, win.sides)
    assert np.allclose(engine_rates(params, pos),
                       engine_rates(params, moved), rtol=1e-10, atol=1e-12)


def test_far_particles_leave_rate_unchanged(rng, torus10):
    k = CompetitionKernel("gaussian", 1, 1.0, 0.2)  # r_cut ~ 1.2
    params = make_params(window=torus10, kernel=k, m=0.5)
    pos = rng.uniform(0.0, 1.0, size=(5, 1))
    far = pos[0] + params.kernel.r_cut + 1.5  # beyond reach of everyone
    grown = np.vstack([pos, far])
    base = engine_rates(params, pos)
    after = engine_rates(params, grown)[:5]
    assert np.array_equal(base, after)


def test_in_cell_pair_energy_lower_bound(rng):
    # every particle inside a common cell sees >= a_cell per competitor
    win = Window([50.0])
    k = CompetitionKernel("gaussian", 1, 2.0, 1.0)
    params = make_params(window=win, kernel=k, m=0.0)
    cell = Box([10.0], [11.0])
    a_cell = cell_infimum(k, cell.separation_box())
    assert a_cell > 0.0
    for n in (2, 3, 6):
        pos = rng.uniform(10.0, 11.0, size=(n, 1))
        rates = engine_rates(params, pos)
        assert np.all(rates >= a_cell * (n - 1) - 1e-12)
