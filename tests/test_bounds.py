"""Weighted norms, existence times, the continuation schedule, moment bounds."""

import math

import numpy as np
import pytest

from contpop import (
    Box,
    CompetitionKernel,
    EffectiveMortalityUnavailable,
    RateField,
    ScheduleHorizonError,
    Window,
    continuation_schedule,
    existence_time,
    kappa_from_factorial_moments,
    moment_bound_system,
    operator_norm_bound,
    stationary_density_bound,
    surgailis_theta_growth,
    theta_norm,
    unit_existence_time,
)
from contpop.bounds import cell_rates
from conftest import gaussian_unit_kernel, make_params


# -------------------------------------------------------------- theta norm

def test_theta_norm_poisson_family():
    rho = 0.7
    fam = {n: rho**n for n in range(1, 17)}
    # rho < 1 = e^0, so the order-1 term dominates at theta = 0
    assert theta_norm(fam, 0.0) == pytest.approx(rho)
    # heavy weight pulls the top order forward
    theta = -1.0
    expect = max(rho**n * math.exp(n) for n in range(1, 17))
    assert theta_norm(fam, theta) == pytest.approx(expect)


def test_theta_norm_of_small_families():
    assert theta_norm({1: 2.0, 2: 1.0}, 0.0) == pytest.approx(2.0)
    assert theta_norm({}, 0.3) == 0.0


# ------------------------------------------------- operator norm, lifetimes

def test_operator_norm_bound_worked_example():
    # all norms 1, theta 0 -> 1: 4/e^2 + (1 + 1 + e)/e
    got = operator_norm_bound(1.0, 1.0, 1.0, 1.0, theta_prime=1.0, theta=0.0)
    expect = 4.0 / math.e**2 + (2.0 + math.e) / math.e
    assert got.total == pytest.approx(expect, rel=1e-14)
    assert got.total == pytest.approx(got.kernel_mortality_part
                                      + got.birth_kernel_part)


def test_operator_norm_bound_free_case():
    # a == 0, m == 0 leaves only the birth lowering term
    got = operator_norm_bound(2.0, 0.0, 0.0, 0.0, theta_prime=0.5, theta=0.0)
    assert got.total == pytest.approx(2.0 / (math.e * 0.5))
    assert got.kernel_mortality_part == 0.0


def test_operator_norm_bound_blows_up_as_scales_merge():
    vals = [operator_norm_bound(1.0, 1.0, 1.0, 1.0, 0.0 + d, 0.0).total
            for d in (1.0, 0.1, 0.01)]
    assert vals[0] < vals[1] < vals[2]
    with pytest.raises(ValueError):
        operator_norm_bound(1.0, 1.0, 1.0, 1.0, 0.0, 0.0)


def test_existence_time_worked_example():
    assert existence_time(1.0, 1.0, theta_prime=1.0, theta=0.0) == \
        pytest.approx(1.0 / (1.0 + math.e))
    # the free specialization (theta' - theta) e^theta / |b|
    assert existence_time(2.0, 0.0, theta_prime=1.5, theta=0.5) == \
        pytest.approx(1.0 * math.exp(0.5) / 2.0)
    with pytest.raises(ValueError):
        existence_time(1.0, 1.0, 0.0, 0.0)


def test_unit_existence_time_consistency():
    for theta in (-0.5, 0.0, 0.7):
        tau = unit_existence_time(theta, 1.3, 0.8)
        assert tau == pytest.approx(
            1.0 / (1.3 * math.exp(-theta) + math.e * 0.8 * math.exp(theta)))
        # tau(theta) is the one-scale-step instance of the general formula
        assert existence_time(1.3, 0.8, theta + 1.0, theta) == pytest.approx(tau)


def test_existence_time_monotone_in_drive():
    taus = [existence_time(b, 1.0, 1.0, 0.0) for b in (0.5, 1.0, 2.0)]
    assert taus[0] > taus[1] > taus[2]


def test_surgailis_theta_growth():
    assert surgailis_theta_growth(0.0, 1.0, 0.0) == 0.0
    got = surgailis_theta_growth(0.2, 1.5, 3.0)
    assert got == pytest.approx(0.2 + math.log(1.0 + 3.0 * 1.5 * math.exp(-0.2)))
    with pytest.raises(ValueError):
        surgailis_theta_growth(0.0, 1.0, -1.0)


# ----------------------------------------------------------------- schedule

def test_schedule_reaches_any_horizon():
    sched = continuation_schedule(1.0, 1.0, 0.0, horizon=10.0)
    assert sched.total_time >= 10.0
    assert sched.steps <= 10**6
    assert np.all(np.diff(sched.exp_thetas) >= 0.0)


def test_schedule_identity_exact():
    sched = continuation_schedule(1.0, 1.0, 0.0, horizon=10.0)
    assert float(np.max(sched.identity_residuals())) <= 1e-12
    # rearranged: T_(n-1) = (e^th_n - e^th_(n-1)) / |b|
    recovered = np.diff(sched.exp_thetas) / 1.0
    assert np.allclose(recovered, sched.times[:-1], rtol=0.0, atol=1e-12)


def test_schedule_steps_mode_runs_exactly_n():
    sched = continuation_schedule(1.0, 1.0, 0.0, steps=25)
    assert sched.steps == 25
    assert sched.times.size == 26
    assert sched.cumulative.size == 26


def test_schedule_seed_step():
    sched = continuation_schedule(2.0, 0.5, 0.3, steps=3, kappa=0.25)
    t0 = 0.25 * unit_existence_time(0.3, 2.0, 0.5)
    assert sched.times[0] == pytest.approx(t0)
    # T_1 repeats the seed since theta has not moved yet
    assert sched.times[1] == pytest.approx(t0)
    assert sched.thetas[0] == pytest.approx(0.3)


def test_schedule_no_immigration_is_degenerate():
    # b = 0: theta never grows and every step has the same length
    sched = continuation_schedule(0.0, 1.0, 0.0, steps=5)
    assert np.allclose(sched.exp_thetas, 1.0)
    assert np.allclose(sched.times, sched.times[0])


def test_schedule_validation():
    with pytest.raises(ValueError, match="kappa"):
        continuation_schedule(1.0, 1.0, 0.0, horizon=1.0, kappa=0.5)
    with pytest.raises(ValueError, match="exactly one"):
        continuation_schedule(1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="exactly one"):
        continuation_schedule(1.0, 1.0, 0.0, horizon=1.0, steps=5)
    with pytest.raises(ValueError, match="horizon"):
        continuation_schedule(1.0, 1.0, 0.0, horizon=-2.0)
    with pytest.raises(ValueError, match="steps"):
        continuation_schedule(1.0, 1.0, 0.0, steps=0)


def test_schedule_horizon_error_carries_progress():
    with pytest.raises(ScheduleHorizonError) as err:
        continuation_schedule(1.0, 1.0, 0.0, horizon=10.0, max_steps=5)
    assert err.value.steps == 5
    assert 0.0 < err.value.reached < 10.0


# ------------------------------------------------------------ moment bounds

def test_moment_system_matches_rk_reference():
    # solve q' = b q_(l-1) - l a q_l with a dense RK integration as referee
    b_cell, a_cell = 0.8, 0.6
    q0 = np.array([0.5, 0.125, 1.0 / 48.0])
    t_grid = np.linspace(0.0, 5.0, 11)
    res = moment_bound_system(q0, b_cell, a_cell, t_grid)

    def rhs(q):
        full = np.concatenate(([1.0], q))
        return np.array([b_cell * full[l - 1] - l * a_cell * full[l]
                         for l in range(1, q.size + 1)])

    q, dt = q0.copy(), 1e-4
    for i, t in enumerate(np.arange(0.0, 5.0 + 1e-12, 1e-4)):
        pass_t = round(t / 0.5, 9)
        if abs(pass_t - round(pass_t)) < 1e-9 and round(pass_t) < 11:
            assert np.allclose(res.trajectories[int(round(pass_t))], q,
                               rtol=1e-6, atol=1e-9)
        k1 = rhs(q)
        k2 = rhs(q + 0.5 * dt * k1)
        k3 = rhs(q + 0.5 * dt * k2)
        k4 = rhs(q + dt * k3)
        q = q + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def test_moment_system_poisson_initial_respects_envelope():
    # Poisson(lam) factorial moments lam^l / l!
    lam, b_cell, a_cell = 0.5, 1.0, 0.25
    q0 = np.array([lam**l / math.factorial(l) for l in range(1, 5)])
    t_grid = np.linspace(0.0, 40.0, 161)
    res = moment_bound_system(q0, b_cell, a_cell, t_grid, kappa0=lam)
    assert res.kappa == pytest.approx(max(lam, b_cell / a_cell))
    assert np.all(res.trajectories <= res.envelope[None, :] + 1e-9)
    assert np.all(res.trajectories >= -1e-12)


def test_moment_system_no_immigration_decays():
    q0 = np.array([2.0, 1.0])
    t_grid = np.array([0.0, 1.0, 5.0, 20.0])
    res = moment_bound_system(q0, 0.0, 0.7, t_grid)
    assert np.allclose(res.trajectories[0], q0, atol=1e-12)
    assert res.trajectories[-1, 0] == pytest.approx(2.0 * math.exp(-0.7 * 20.0),
                                                    rel=1e-9)
    assert np.all(np.diff(res.trajectories, axis=0) <= 1e-12)


def test_moment_system_free_branch_is_polynomial():
    q0 = np.array([1.0, 0.5])
    t_grid = np.array([0.0, 2.0])
    res = moment_bound_system(q0, 0.5, 0.0, t_grid)
    # q1(t) = q1(0) + b t; q2(t) = q2(0) + b t q1(0) + (b t)^2 / 2
    assert res.trajectories[1, 0] == pytest.approx(2.0)
    assert res.trajectories[1, 1] == pytest.approx(0.5 + 1.0 + 0.5)
    assert math.isinf(res.kappa)
    assert np.all(np.isinf(res.envelope))


def test_moment_system_validation():
    with pytest.raises(ValueError):
        moment_bound_system([], 1.0, 1.0, [0.0])
    with pytest.raises(ValueError):
        moment_bound_system([-0.1], 1.0, 1.0, [0.0])


def test_kappa_from_factorial_moments():
    lam = 1.7
    q = [lam**l / math.factorial(l) for l in range(1, 7)]
    assert kappa_from_factorial_moments(q) == pytest.approx(lam, rel=1e-12)
    assert kappa_from_factorial_moments([0.0, 0.0]) == 0.0


def test_cell_rates_of_a_cube():
    # the separations of two points in the cube reach its far corner,
    # |u| = h sqrt(d), where the kernel is smallest; b_cell is b times the
    # cube's volume
    params = make_params(window=Window([8.0, 6.0]),
                         kernel=gaussian_unit_kernel(2), b=1.5)
    a_cell, b_cell = cell_rates(params, 0.5)
    assert a_cell == pytest.approx(
        float(params.kernel.radial(0.5 * math.sqrt(2.0))), rel=1e-12)
    assert b_cell == pytest.approx(1.5 * 0.25, rel=1e-12)
    assert cell_rates(make_params(window=Window([8.0, 6.0])), 0.5)[0] == 0.0


def test_cell_rates_bound_the_births_into_every_cube():
    # a bump peaked at 5: the cube [0, 1) receives almost no births, the
    # unit cube centred on the peak about 1.71; b_cell bounds every one
    window = Window([10.0])
    bump = RateField.gaussian_bump(2.0, [5.0], 0.5, window.domain)
    params = make_params(window=window, kernel=gaussian_unit_kernel(1),
                         b=bump)
    _, b_cell = cell_rates(params, 1.0)
    assert b_cell == 2.0
    assert bump.integral_over(Box([4.5], [5.5])) > 1.7
    for lo in np.linspace(0.0, 9.0, 37):
        assert b_cell >= bump.integral_over(Box([lo], [lo + 1.0]))


# --------------------------------------------------------- stationary bound

def test_stationary_density_bound_level():
    params = make_params(window=Window([10.0]), kernel=gaussian_unit_kernel(1),
                         b=0.5, m=0.0)
    bound = stationary_density_bound(params, rho0_sup=0.25)
    assert bound.a_zero == pytest.approx(1.0)
    assert bound.level_sup == pytest.approx(0.5)
    assert bound.global_bound == pytest.approx(0.5)
    high = stationary_density_bound(params, rho0_sup=2.0)
    assert high.global_bound == pytest.approx(2.0)
    initial = stationary_density_bound(params, 0.8)
    assert initial.rho0_sup == initial.global_bound == 0.8


def test_stationary_density_bound_needs_self_interaction():
    params = make_params(window=Window([10.0]))
    with pytest.raises(EffectiveMortalityUnavailable):
        stationary_density_bound(params, rho0_sup=1.0)
