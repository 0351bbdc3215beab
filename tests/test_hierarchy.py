"""Truncated hierarchy: right-hand sides, closures, and the RK4 integrator.

The consistency tests rebuild the pair-equation drain with explicit Python
loops and pointwise closure formulas, then compare against the vectorized
FFT implementation on random smooth states.
"""

import math

import numpy as np
import pytest

from contpop import (
    Box,
    ClipBudgetError,
    CompetitionKernel,
    DivergenceError,
    HierarchyState,
    RateField,
    StepSizeError,
    Window,
    integrate,
    rhs_order1,
    rhs_order2,
)
from contpop import hierarchy
from contpop.hierarchy import CLOSURES, KIRKWOOD_FLOOR, check_steps
from contpop.surgailis import SurgailisFlow, poisson_density_flow
from conftest import gaussian_unit_kernel, make_params

L = 10.0


def ti_state(rho=0.7, M=48, k2=None, b=1.0, m=0.5, kernel=None):
    params = make_params(window=Window([L]),
                         kernel=kernel or gaussian_unit_kernel(1), b=b, m=m)
    state = HierarchyState.translation_invariant(params, M, rho)
    if k2 is not None:
        state.k2 = np.asarray(k2, dtype=float)
    return state


def smooth_even_k2(M, seed=3):
    """Positive separation-grid function with the physical u -> -u symmetry."""
    gen = np.random.default_rng(seed)
    u = np.arange(M) * (L / M)
    k2 = np.full(M, 1.1)
    for mode, amp in enumerate(gen.uniform(0.05, 0.25, size=3), start=1):
        k2 += amp * np.cos(2.0 * math.pi * mode * u / L)
    assert np.all(k2 > 0)
    return k2


# ------------------------------------------------- slow reference evaluators

def k3_ti(closure, rho, k2, i, y, M):
    # particles at 0, u_i, v_y; pair separations u_i, v_y, v_y - u_i
    k2_12, k2_13, k2_23 = k2[i], k2[y], k2[(y - i) % M]
    if closure == "mean-field":
        return k2_12 * rho
    if closure == "zero-third-cumulant":
        return rho * (k2_12 + k2_13 + k2_23) - 2.0 * rho**3
    return k2_12 * k2_13 * k2_23 / max(rho**3, KIRKWOOD_FLOOR)


def slow_rhs_ti(state, closure):
    M = state.grid_points
    du = state.cell_volume
    a = state.a_grid
    k2, rho, b, m = state.k2, state.rho, state.b, state.m
    d_rho = b - m * rho - float(np.sum(a * k2)) * du
    d_k2 = np.empty(M)
    for i in range(M):
        drain = 0.0
        for y in range(M):
            pair_a = a[y] + a[(y - i) % M]
            drain += pair_a * k3_ti(closure, rho, k2, i, y, M) * du
        d_k2[i] = -(2.0 * m + 2.0 * a[i]) * k2[i] + 2.0 * b * rho - drain
    return d_rho, d_k2


def k3_full(closure, k1, k2, i, j, y):
    if closure == "mean-field":
        return k2[i, j] * k1[y]
    if closure == "zero-third-cumulant":
        return (k1[i] * k2[j, y] + k1[j] * k2[i, y] + k1[y] * k2[i, j]
                - 2.0 * k1[i] * k1[j] * k1[y])
    k1f = np.maximum(k1, KIRKWOOD_FLOOR ** (1.0 / 3.0))
    return k2[i, j] * k2[i, y] * k2[j, y] / (k1f[i] * k1f[j] * k1f[y])


def slow_rhs_full(state, closure):
    M = state.grid_points
    du = state.cell_volume
    amat = np.array([[state.a_grid[(j - i) % M] for j in range(M)]
                     for i in range(M)])
    k1, k2, b, m = state.k1, state.k2, state.b, state.m
    d_k1 = np.array([
        b[i] - m[i] * k1[i] - float(np.sum(amat[i] * k2[i])) * du
        for i in range(M)])
    d_k2 = np.empty((M, M))
    for i in range(M):
        for j in range(M):
            drain = 0.0
            for y in range(M):
                drain += (amat[i, y] + amat[j, y]) \
                    * k3_full(closure, k1, k2, i, j, y) * du
            d_k2[i, j] = -(m[i] + m[j] + 2.0 * amat[i, j]) * k2[i, j] \
                + b[i] * k1[j] + b[j] * k1[i] - drain
    return d_k1, d_k2


@pytest.mark.parametrize("closure", CLOSURES)
def test_rhs_matches_slow_evaluator_translation_invariant(closure):
    M = 48
    state = ti_state(rho=0.7, M=M, k2=smooth_even_k2(M))
    slow_r, slow_k2 = slow_rhs_ti(state, closure)
    assert rhs_order1(state) == pytest.approx(slow_r, abs=1e-12)
    fast = rhs_order2(state, closure)
    assert np.allclose(fast, slow_k2, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("closure", CLOSURES)
def test_rhs_matches_slow_evaluator_full_grid(closure):
    M = 24
    gen = np.random.default_rng(11)
    params = make_params(window=Window([L]), kernel=gaussian_unit_kernel(1),
                         b=1.0, m=0.5)
    x = np.arange(M) * (L / M)
    k1 = 0.9 + 0.25 * np.sin(2.0 * math.pi * x / L) \
        + 0.1 * np.cos(4.0 * math.pi * x / L)
    k2 = (1.0 + 0.2 * np.cos(2.0 * math.pi * (x[:, None] - x[None, :]) / L)
          + 0.1 * np.outer(np.sin(2.0 * math.pi * x / L),
                           np.sin(2.0 * math.pi * x / L)))
    state = HierarchyState.full_grid(params, M, lambda p: np.interp(
        p.ravel(), x, k1, period=L), k20=k2)
    assert np.allclose(state.k1, k1)
    slow_k1, slow_k2 = slow_rhs_full(state, closure)
    fast1 = rhs_order1(state)
    fast2 = rhs_order2(state, closure)
    assert np.allclose(fast1, slow_k1, rtol=1e-12, atol=1e-11)
    assert np.allclose(fast2, slow_k2, rtol=1e-12, atol=1e-11)


def test_rhs_order2_requires_pair_data():
    state = ti_state()
    state.k2 = None
    with pytest.raises(ValueError):
        rhs_order2(state)


def test_kirkwood_floor_handles_vacuum():
    state = ti_state(rho=0.0, k2=np.zeros(48))
    out = rhs_order2(state, "kirkwood")
    assert np.all(np.isfinite(out))


def test_unknown_closure_rejected():
    state = ti_state()
    with pytest.raises(ValueError, match="closure"):
        rhs_order2(state, "gaussian-closure")
    with pytest.raises(ValueError, match="closure"):
        integrate(state, 0.1, 0.01, closure="nope")


# ----------------------------------------------------------- exact regimes

def test_free_hierarchy_matches_exact_flow():
    # a == 0 closes the chain: rho and k2 follow the soluble flow
    params = make_params(window=Window([L]), b=1.0, m=1.0)
    state = HierarchyState.translation_invariant(params, 64, 0.3)
    traj = integrate(state, 2.0, 1e-3, n_max=2)
    flow = SurgailisFlow(1.0, 1.0, params.window, 2.0)
    exact = float(poisson_density_flow(0.3, flow, np.zeros((1, 1)))[0])
    assert abs(traj.final_density() - exact) <= 1e-6
    assert np.max(np.abs(traj.k2[-1] - exact**2)) <= 1e-6


def test_free_full_grid_matches_pointwise_flow():
    win = Window([L])
    bump = RateField.gaussian_bump(2.0, [5.0], 0.8, Box([0.0], [L]))
    params = make_params(window=win, b=bump, m=1.0)
    state = HierarchyState.full_grid(params, 64, 0.3)
    traj = integrate(state, 1.5, 1e-3, n_max=2)
    flow = SurgailisFlow(bump, 1.0, win, 1.5)
    pts = state.x[:, None]
    exact = poisson_density_flow(0.3, flow, pts)
    assert np.max(np.abs(traj.density[-1] - exact)) <= 1e-6
    assert np.max(np.abs(traj.k2[-1] - np.outer(exact, exact))) <= 1e-6


def test_full_grid_reduces_to_translation_invariant():
    M = 64
    kernel = gaussian_unit_kernel(1)
    params = make_params(window=Window([L]), kernel=kernel, b=1.0, m=1.0)
    ti = HierarchyState.translation_invariant(params, M, 0.5)
    fg = HierarchyState.full_grid(params, M, 0.5)
    traj_ti = integrate(ti, 0.5, 2e-3, n_max=2)
    traj_fg = integrate(fg, 0.5, 2e-3, n_max=2)
    assert np.allclose(traj_fg.density[-1], traj_ti.final_density(),
                       rtol=0.0, atol=1e-10)
    i, j = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    lifted = traj_ti.k2[-1][(j - i) % M]
    assert np.allclose(traj_fg.k2[-1], lifted, rtol=0.0, atol=1e-10)


def test_order1_logistic_stationary_point():
    params = make_params(window=Window([L]), kernel=gaussian_unit_kernel(1),
                         b=1.0, m=1.0)
    state = HierarchyState.translation_invariant(params, 64, 0.0)
    a_mass = state.a_mass
    target = (-1.0 + math.sqrt(1.0 + 4.0 * a_mass)) / (2.0 * a_mass)
    traj = integrate(state, 30.0, 5e-3, n_max=1)
    assert abs(traj.final_density() - target) <= 1e-8


def test_empty_system_stays_empty():
    params = make_params(window=Window([L]), kernel=gaussian_unit_kernel(1),
                         b=0.0, m=0.7)
    state = HierarchyState.translation_invariant(params, 32, 0.0)
    traj = integrate(state, 1.0, 1e-2, n_max=2, snapshots=[0.0, 0.5, 1.0])
    assert np.all(traj.density == 0.0)
    assert np.all(traj.k2 == 0.0)
    assert traj.clipped_mass == 0.0


# --------------------------------------------------------- honest-red cases

CAP_TOL = 1e-6


@pytest.mark.parametrize("closure", CLOSURES)
def test_density_cap_order1(closure):
    # with m = 0 the order-1 closure settles at sqrt(b/<a>) <= b/a(0) + tol
    params = make_params(window=Window([L]), kernel=gaussian_unit_kernel(1),
                         b=1.0, m=0.0)
    state = HierarchyState.translation_invariant(params, 128, 0.0)
    traj = integrate(state, 20.0, 5e-3, closure=closure, n_max=1,
                     snapshots=np.linspace(0.0, 20.0, 41))
    cap = max(0.0, 1.0 / float(params.kernel.radial(0.0)))
    assert float(np.max(traj.density)) <= cap + CAP_TOL


@pytest.mark.parametrize("closure", CLOSURES)
def test_density_cap_order2(closure):
    # Known red: every n_max = 2 closure overshoots b/a(0) for a narrow
    # kernel, tracking the true process, which itself sits near 1.25 here.
    params = make_params(window=Window([L]), kernel=gaussian_unit_kernel(1),
                         b=1.0, m=0.0)
    state = HierarchyState.translation_invariant(params, 128, 0.0)
    traj = integrate(state, 20.0, 5e-3, closure=closure, n_max=2,
                     snapshots=np.linspace(0.0, 20.0, 41))
    cap = max(0.0, 1.0 / float(params.kernel.radial(0.0)))
    peak = float(np.max(traj.density))
    assert peak <= cap + CAP_TOL, (
        f"{closure}: peak density {peak:.4f} exceeds cap {cap + CAP_TOL:.6f}")


# ------------------------------------------------------------- integrator

def test_rk4_is_fourth_order():
    params = make_params(window=Window([L]), b=1.0, m=2.5)
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        state = HierarchyState.translation_invariant(params, 16, 0.0)
        traj = integrate(state, 2.0, dt, n_max=1)
        exact = (1.0 - math.exp(-2.5 * 2.0)) / 2.5
        errors.append(abs(traj.final_density() - exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_step_size_guard():
    params = make_params(window=Window([L]), kernel=gaussian_unit_kernel(1),
                         b=1.0, m=4.0)
    state = HierarchyState.translation_invariant(params, 32, 0.5)
    with pytest.raises(StepSizeError, match="stability"):
        integrate(state, 1.0, 0.1, n_max=2)


def test_divergence_detected():
    params = make_params(window=Window([L]), b=1e307, m=0.0)
    state = HierarchyState.translation_invariant(params, 8, 0.0)
    with pytest.raises(DivergenceError):
        integrate(state, 100.0, 0.1, n_max=1)


def test_clip_budget_enforced():
    params = make_params(window=Window([L]), kernel=gaussian_unit_kernel(1),
                         b=0.0, m=0.1)
    state = HierarchyState.translation_invariant(params, 32, 1e-6)
    state.k2 = np.full(32, -1.0)  # corrupt pair data, all mass negative
    with pytest.raises(ClipBudgetError):
        integrate(state, 1.0, 1e-2, n_max=2)


def test_snapshot_validation():
    params = make_params(window=Window([L]), b=1.0, m=1.0)
    state = HierarchyState.translation_invariant(params, 16, 0.0)
    with pytest.raises(ValueError, match="multiple"):
        integrate(state, 1.0, 1e-2, snapshots=[0.005])
    with pytest.raises(ValueError, match="outside"):
        integrate(state, 1.0, 1e-2, snapshots=[2.0])
    with pytest.raises(ValueError, match="multiple"):
        integrate(state, 1.05e-1, 1e-2)
    with pytest.raises(ValueError):
        integrate(state, 1.0, -1e-2)
    with pytest.raises(ValueError, match="n_max"):
        integrate(state, 1.0, 1e-2, n_max=3)


@pytest.mark.parametrize("t_end, dt", [
    (1.0, math.nan), (math.nan, 1e-2), (1.0, math.inf), (math.inf, 1e-2),
    (1.0, 0.0), (-1.0, 1e-2),
])
def test_non_finite_or_non_positive_steps_are_refused(t_end, dt):
    params = make_params(window=Window([L]), b=1.0, m=1.0)
    state = HierarchyState.translation_invariant(params, 16, 0.0)
    with pytest.raises(ValueError, match="finite dt > 0"):
        integrate(state, t_end, dt)
    with pytest.raises(ValueError, match="finite dt > 0"):
        check_steps(t_end, dt)


def test_check_steps_maps_steps_to_snapshot_times():
    assert check_steps(1.0, 0.25, [0.5, 0.0, 0.5]) == (4, {0: 0.0, 2: 0.5})
    assert check_steps(1.0, 0.25) == (4, {4: 1.0})
    with pytest.raises(ValueError, match="multiple"):
        check_steps(1.0, 0.25, [math.inf])


def test_trajectory_bookkeeping():
    params = make_params(window=Window([L]), b=1.0, m=1.0)
    state = HierarchyState.translation_invariant(params, 16, 0.2)
    traj = integrate(state, 1.0, 1e-2, n_max=2,
                     snapshots=[0.0, 0.25, 0.5, 1.0])
    assert traj.times.tolist() == [0.0, 0.25, 0.5, 1.0]
    assert traj.density.shape == (4,)
    assert traj.density[0] == 0.2
    assert traj.k2.shape == (4, 16)
    assert traj.separations.shape == (16,)
    assert traj.clip_ratio == 0.0
    assert traj.final_density() == traj.density[-1]


def fg_state(M=16):
    """Full-grid state with a non-uniform k1 and a k2 that is not symmetric,
    so a transposed or shifted layout shows."""
    params = make_params(window=Window([L]), kernel=gaussian_unit_kernel(1),
                         b=1.0, m=0.5)
    x = np.arange(M) * (L / M)
    k1 = 0.6 + 0.2 * np.sin(2.0 * math.pi * x / L)
    k2 = np.outer(k1, k1) + 0.01 * np.arange(M * M).reshape(M, M) / M**2
    return HierarchyState.full_grid(params, M, lambda p: np.interp(
        p.ravel(), x, k1, period=L), k20=k2)


def test_pack_unpack_round_trip():
    M = 16
    cases = [(ti_state(rho=0.45, M=M, k2=smooth_even_k2(M)), 2),
             (ti_state(rho=0.45, M=M, k2=smooth_even_k2(M)), 1),
             (fg_state(M), 2), (fg_state(M), 1)]
    for state, n_max in cases:
        ti = state.mode == "translation-invariant"
        first = np.atleast_1d(state.rho if ti else state.k1)
        y = state.pack(n_max)
        assert y.size == first.size + (M * (1 if ti else M) if n_max == 2
                                       else 0)
        head, k2 = state.split(y, n_max)
        assert np.array_equal(head, first)
        assert np.shares_memory(head, y)
        back = state.unpack(y, n_max)
        assert np.array_equal(np.atleast_1d(back.rho if ti else back.k1),
                              first)
        if n_max == 1:
            assert k2 is None and back.k2 is None
            assert y.size == first.size
        else:
            assert np.array_equal(k2, state.k2) and np.shares_memory(k2, y)
            assert np.array_equal(back.k2, state.k2)
            assert not np.shares_memory(back.k2, y)


@pytest.mark.parametrize("mode", ["translation-invariant", "full-grid"])
@pytest.mark.parametrize("closure", CLOSURES)
def test_integrate_leaves_input_state_unchanged(mode, closure):
    M = 16
    state = ti_state(rho=0.45, M=M, k2=smooth_even_k2(M)) \
        if mode == "translation-invariant" else fg_state(M)
    before = [np.array(v, copy=True) for v in (state.rho, state.k1, state.k2)]
    traj = integrate(state, 0.2, 1e-2, closure=closure, n_max=2,
                     snapshots=[0.0, 0.1, 0.2])
    assert not np.array_equal(traj.k2[-1], traj.k2[0])
    after = [np.array(v, copy=True) for v in (state.rho, state.k1, state.k2)]
    assert [v.tobytes() for v in after] == [v.tobytes() for v in before]


@pytest.mark.parametrize("closure", CLOSURES)
def test_full_grid_stage_convolves_k2_once(closure, monkeypatch):
    # rhs_order1 and the zero-third-cumulant drain share one M x M
    # convolution of k2 per RK4 stage; the other closures do not keep it
    # alive through rhs_order2, whose drain does not read it
    M = 128
    state = fg_state(M)
    k2 = state.k2
    conv = hierarchy._row_convolution(state, k2)
    # the rfftn form is the irfft form the drain used, bit for bit
    w = np.fft.irfft(np.fft.rfft(k2, axis=1) * state.a_fft[None, :], n=M,
                     axis=1)
    assert conv.tobytes() == w.tobytes()
    for shared, alone in ((rhs_order1(state, conv),
                           rhs_order1(state)),
                          (rhs_order2(state, closure, conv),
                           rhs_order2(state, closure))):
        assert shared.tobytes() == alone.tobytes()
    shapes = []
    convolve = hierarchy._row_convolution

    def counted(state, k2):
        shapes.append(k2.shape)
        return convolve(state, k2)

    passed = []
    order2 = hierarchy.rhs_order2

    def recorded(state, closure, k2_conv=None):
        passed.append(k2_conv is not None)
        return order2(state, closure, k2_conv)

    monkeypatch.setattr(hierarchy, "_row_convolution", counted)
    monkeypatch.setattr(hierarchy, "rhs_order2", recorded)
    integrate(state, 0.03, 1e-2, closure=closure, n_max=2)
    assert shapes == [(M, M)] * (4 * 3)
    assert passed == [closure == "zero-third-cumulant"] * (4 * 3)


def test_stability_margin_reaches_one_under_the_guard():
    # b = 0: the density only falls, so the first step has the largest
    # stiffness, and dt just under the guard puts the margin just under 1
    params = make_params(window=Window([L]), kernel=gaussian_unit_kernel(1),
                         b=0.0, m=1.0)
    state = HierarchyState.translation_invariant(params, 32, 0.5)
    stiffness = params.m_norm + 2.0 * params.a_sup + params.a_integral * 0.5
    dt = 0.5 / stiffness * (1.0 - 1e-6)
    traj = integrate(state, 5 * dt, dt, n_max=2)
    assert 1.0 - 1e-5 <= traj.max_stability_margin <= 1.0
    with pytest.raises(StepSizeError):
        integrate(state, 5.0 * 0.5 / stiffness * (1.0 + 1e-6),
                  0.5 / stiffness * (1.0 + 1e-6), n_max=2)
    calm = integrate(state, 0.5, 1e-2, n_max=2)
    assert 0.0 < calm.max_stability_margin <= 1.0


def test_state_mode_validation():
    params = make_params(window=Window([L]), b=1.0, m=1.0)
    with pytest.raises(ValueError, match="mode"):
        HierarchyState(params, 16, "spectral")
    win = Window([4.0], boundary="absorbing-buffer", buffer_width=1.0)
    buffered = make_params(window=win)
    with pytest.raises(ValueError, match="periodic"):
        HierarchyState.translation_invariant(buffered, 16, 0.1)
    bump = RateField.gaussian_bump(1.0, [5.0], 1.0, Box([0.0], [L]))
    inhom = make_params(window=Window([L]), b=bump)
    with pytest.raises(ValueError, match="constant"):
        HierarchyState.translation_invariant(inhom, 16, 0.1)
    params2 = make_params(window=Window([4.0, 4.0]))
    with pytest.raises(ValueError, match="dimension 1"):
        HierarchyState.full_grid(params2, 16, 0.1)
