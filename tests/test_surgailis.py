"""The exactly soluble non-interacting flow and its propagator."""

import math

import numpy as np
import pytest

from contpop import (
    Box,
    RateField,
    SurgailisFlow,
    Window,
    box_quadrature,
    expected_count,
    poisson_density_flow,
    propagate_correlation,
)
from conftest import make_params


def flow(b=1.0, m=1.0, t=1.0, L=10.0):
    return SurgailisFlow(RateField.constant(b, 1), RateField.constant(m, 1),
                         Window([L]), t)


# ------------------------------------------------------------- psi and phi

def test_initial_fields():
    f = flow(b=2.0, m=3.0, t=0.0)
    assert f.psi([1.0]) == pytest.approx(1.0)
    assert f.phi([1.0]) == pytest.approx(0.0)


def test_psi_bounded_and_positive(rng):
    f = flow(b=1.0, m=2.5, t=3.0)
    x = rng.uniform(0.0, 10.0, size=(20, 1))
    psi = f.psi(x)
    assert np.all(psi > 0.0)
    assert np.all(psi <= 1.0)
    assert np.allclose(psi, math.exp(-2.5 * 3.0))


def test_phi_closed_form():
    f = flow(b=2.0, m=0.5, t=2.0)
    exact = 2.0 * (1.0 - math.exp(-1.0)) / 0.5
    assert f.phi([4.0]) == pytest.approx(exact, rel=1e-14)


def test_phi_zero_mortality_branch():
    f = flow(b=1.5, m=0.0, t=4.0)
    assert f.phi([0.0]) == pytest.approx(6.0)


def test_phi_continuous_across_branches():
    # the m -> 0 limit of the closed form meets the m = 0 branch
    t = 3.0
    base = flow(b=1.0, m=0.0, t=t).phi([0.0])
    for m in (1e-13, 1e-12):
        val = flow(b=1.0, m=m, t=t).phi([0.0])
        assert abs(val - base) <= 1e-9
    for m in (1e-9, 1e-7):
        val = flow(b=1.0, m=m, t=t).phi([0.0])
        assert abs(val - base) <= m * t * t  # O(m) slope of the exact limit
    # and the series branch agrees with the expm1 form where both are sound
    for m in (1e-6, 2e-6, 1e-5):
        series = flow(b=1.0, m=m * 0.999999, t=t).phi([0.0])
        closed = 1.0 * (-math.expm1(-m * t)) / m
        assert series == pytest.approx(closed, rel=1e-6)


@pytest.mark.parametrize("m, t", [(5e-7, 1e7), (1e-13, 1e13)])
def test_phi_exact_for_small_m_and_large_m_t(m, t):
    # a small m does not make m t small: one closed form holds for m > 0
    exact = (1.0 - math.exp(-m * t)) / m
    assert flow(b=1.0, m=m, t=t).phi([0.0]) == pytest.approx(exact, rel=1e-9)


def test_flow_rejects_negative_time():
    with pytest.raises(ValueError):
        flow(t=-0.1)


# -------------------------------------------------------------- propagator

def k_poisson(rho):
    return lambda pts: rho ** np.asarray(pts).reshape(-1, 1).shape[0]


def test_propagator_identity_at_t0(rng):
    f = flow(t=0.0)
    k0 = lambda pts: 2.0 + float(np.sum(np.sin(pts)))
    for n in (1, 2, 3):
        eta = rng.uniform(0.0, 10.0, size=(n, 1))
        assert propagate_correlation(eta, k0, f) == pytest.approx(k0(eta), rel=1e-12)


def test_propagator_empty_configuration():
    assert propagate_correlation(np.empty((0, 1)), k_poisson(1.0), flow()) == 1.0


def test_propagator_singleton_formula():
    b, m, t, rho = 2.0, 0.7, 1.3, 0.4
    f = flow(b=b, m=m, t=t)
    psi = math.exp(-m * t)
    phi = b * (1.0 - psi) / m
    got = propagate_correlation([[3.0]], k_poisson(rho), f)
    assert got == pytest.approx(psi * rho + phi, rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_poisson_states_stay_poisson(rng, n):
    b, m, t, rho = 1.0, 1.0, 2.0, 0.6
    f = flow(b=b, m=m, t=t)
    eta = rng.uniform(0.0, 10.0, size=(n, 1))
    rho_t = poisson_density_flow(rho, f, eta[0])
    got = propagate_correlation(eta, k_poisson(rho), f)
    assert got == pytest.approx(float(rho_t) ** n, rel=1e-12)


def test_propagator_semigroup(rng):
    # propagate to s, then restart from k_s and go t more: equals s + t
    b, m, s, t = 1.3, 0.8, 0.6, 0.9
    fs, ft, fst = flow(b=b, m=m, t=s), flow(b=b, m=m, t=t), flow(b=b, m=m, t=s + t)
    k0 = lambda pts: 0.5 ** np.asarray(pts).reshape(-1, 1).shape[0]
    k_s = lambda pts: propagate_correlation(pts, k0, fs)
    for n in (1, 2, 3):
        eta = rng.uniform(0.0, 10.0, size=(n, 1))
        two_leg = propagate_correlation(eta, k_s, ft)
        direct = propagate_correlation(eta, k0, fst)
        assert two_leg == pytest.approx(direct, rel=1e-10)


def test_propagator_monotone_in_initial_data(rng):
    f = flow(b=0.7, m=1.1, t=1.5)
    eta = rng.uniform(0.0, 10.0, size=(3, 1))
    low = propagate_correlation(eta, k_poisson(0.4), f)
    high = propagate_correlation(eta, k_poisson(0.5), f)
    assert low <= high


def test_propagator_preserves_positivity(rng):
    f = flow(b=0.9, m=0.4, t=2.2)
    k0 = lambda pts: abs(float(np.prod(np.sin(pts) + 1.1)))
    for n in (1, 2, 4):
        eta = rng.uniform(0.0, 10.0, size=(n, 1))
        assert propagate_correlation(eta, k0, f) >= 0.0


def test_no_immigration_pure_decay(rng):
    m, t = 1.4, 0.8
    f = flow(b=0.0, m=m, t=t)
    eta = rng.uniform(0.0, 10.0, size=(3, 1))
    k0 = k_poisson(0.7)
    got = propagate_correlation(eta, k0, f)
    assert got == pytest.approx(math.exp(-3 * m * t) * 0.7**3, rel=1e-12)


def test_propagator_order_cap():
    f = flow()
    eta = np.zeros((21, 1))
    with pytest.raises(ValueError, match="order"):
        propagate_correlation(eta, k_poisson(1.0), f)


def bump_flow(d, t=0.8):
    box = Box(np.zeros(d), np.full(d, 10.0))
    b = RateField.gaussian_bump(1.2, np.full(d, 6.0), 1.5, box)
    m = RateField.gaussian_bump(0.9, np.full(d, 3.0), 2.0, box)
    return SurgailisFlow(b, m, Window([10.0] * d), t)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_batch_equals_single_configurations(rng, d, n):
    # a batch runs the subset sum on whole arrays in the order a single
    # configuration does, so each element is the same float, not a close one
    f = bump_flow(d)
    rho0 = RateField.gaussian_bump(0.7, np.full(d, 4.0), 1.8,
                                   Box(np.zeros(d), np.full(d, 10.0)))
    k0 = lambda pts: np.prod(rho0(pts), axis=-1)
    batch = rng.uniform(0.0, 10.0, size=(3, 4, n, d))
    got = propagate_correlation(batch, k0, f)
    assert got.shape == (3, 4)
    single = [[propagate_correlation(eta, k0, f) for eta in row]
              for row in batch]
    assert all(isinstance(v, float) for row in single for v in row)
    assert np.array_equal(got, np.array(single))
    if n == 0:
        assert np.all(got == 1.0)


def test_propagator_rejects_misshapen_positions():
    f = flow()
    with pytest.raises(ValueError, match="positions"):
        propagate_correlation([3.0], k_poisson(1.0), f)
    with pytest.raises(ValueError, match="positions"):
        propagate_correlation(np.zeros((2, 2)), k_poisson(1.0), f)


# -------------------------------------------------- densities and counts

def test_density_flow_no_mortality():
    f = flow(b=2.0, m=0.0, t=3.0)
    assert poisson_density_flow(0.5, f, [1.0]) == pytest.approx(0.5 + 6.0)


def test_density_flow_field_initial():
    rho0 = RateField.tabulated([0.2, 0.8], Box([0.0], [10.0]))
    f = flow(b=0.0, m=1.0, t=1.0)
    val = poisson_density_flow(rho0, f, [1.0])
    assert val == pytest.approx(0.2 * math.exp(-1.0), rel=1e-12)


def test_expected_count_decay_plus_drive():
    region = Box([0.0], [5.0])
    f = flow(b=2.0, m=1.0, t=1.0, L=5.0)
    # an initial mean count of 3 spread uniformly over the region
    expect = 3.0 * math.exp(-1.0) + 2.0 * (1.0 - math.exp(-1.0)) * 5.0
    assert expected_count(region, f, 3.0 / 5.0) == \
        pytest.approx(expect, rel=1e-9)


def test_expected_count_explicit_density():
    region = Box([0.0], [4.0])
    f = flow(b=0.0, m=2.0, t=0.5, L=4.0)
    got = expected_count(region, f, rho0=1.5)
    assert got == pytest.approx(1.5 * math.exp(-1.0) * 4.0, rel=1e-9)


# --------------------------------------------------------------- quadrature

def test_box_quadrature_periodic_weights():
    pts, w = box_quadrature(Box([0.0], [10.0]), 64, periodic=True)
    assert pts.shape == (64, 1)
    assert np.sum(w) == pytest.approx(10.0)
    assert np.allclose(w, 10.0 / 64)


def test_box_quadrature_trapezoid_exact_on_linear():
    pts, w = box_quadrature(Box([0.0], [2.0]), 16)
    vals = 3.0 * pts[:, 0] + 1.0
    assert np.sum(w * vals) == pytest.approx(8.0, rel=1e-12)


def test_box_quadrature_2d_volume():
    pts, w = box_quadrature(Box([0.0, 0.0], [2.0, 3.0]), 8)
    assert np.sum(w) == pytest.approx(6.0)
