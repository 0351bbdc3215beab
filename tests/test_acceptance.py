"""Acceptance suite: one test per release criterion.

Each test registers a PASS/FAIL line (printed in the terminal summary)
before asserting, so a red criterion still reports its measured numbers.
"""

import csv
import json
import math
import time

import numpy as np
import pytest
import scipy.linalg

from contpop import (
    Box,
    CellPartition,
    CompetitionKernel,
    HierarchyState,
    ModelParams,
    RateField,
    ReplicaPlan,
    Window,
    cell_infimum,
    continuation_schedule,
    factorial_moment,
    integrate,
    mean_density,
    moment_bound_system,
    moment_series,
    run_replicas,
    stirling,
)
from contpop.cli import main
from conftest import gaussian_unit_kernel, record_criterion

L = 10.0
SEED = 20260819


def constant_params(kernel, b, m):
    return ModelParams(Window([L]), kernel, RateField.constant(b, 1),
                       RateField.constant(m, 1))


@pytest.fixture(scope="module")
def long_run():
    """One interacting run shared by the envelope criteria: b = 1, m = 0,
    unit Gaussian kernel, Poisson(0.5) start, 200 replicas to t = 50."""
    params = constant_params(gaussian_unit_kernel(1), 1.0, 0.0)
    snapshots = (1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0,
                 45.0, 50.0)
    plan = ReplicaPlan(replicas=200, base_seed=SEED, snapshots=snapshots,
                       initial=RateField.constant(0.5, 1))
    ensemble, _ = run_replicas(params, plan, threads=4)
    return params, ensemble


def test_criterion_01_simulator_free_law():
    params = constant_params(CompetitionKernel.zero(1), 1.0, 1.0)
    snapshots = (0.5, 1.0, 2.0, 5.0)
    plan = ReplicaPlan(replicas=200, base_seed=SEED, snapshots=snapshots,
                       initial=RateField.constant(0.0, 1))
    t0 = time.perf_counter()
    ensemble, _ = run_replicas(params, plan, threads=4)
    wall = time.perf_counter() - t0
    grid = mean_density(ensemble)
    worst = -math.inf
    for k, t in enumerate(snapshots):
        exact = 1.0 - math.exp(-t)
        gap = abs(grid.values[k] - exact) - 3.0 * grid.stderr[k]
        worst = max(worst, gap)
    passed = worst <= 0.0 and wall < 60.0
    record_criterion(1, "simulator matches the exact non-interacting law",
                     passed,
                     f"worst |dev| - 3 sigma = {worst:+.3e}, wall {wall:.1f}s")
    assert worst <= 0.0
    assert wall < 60.0


def test_criterion_02_hierarchy_free_exactness():
    params = constant_params(CompetitionKernel.zero(1), 1.0, 1.0)
    state = HierarchyState.translation_invariant(params, 64, 0.0)
    traj = integrate(state, 2.0, 1e-3, n_max=2)
    exact = 1.0 - math.exp(-2.0)
    density_err = abs(traj.final_density() - exact)
    pair_err = float(np.max(np.abs(traj.k2[-1] - exact**2)))
    passed = density_err <= 1e-6 and pair_err <= 1e-6
    record_criterion(2, "hierarchy reproduces the exact non-interacting flow",
                     passed,
                     f"|rho err| {density_err:.2e}, |k2 err| {pair_err:.2e}")
    assert density_err <= 1e-6
    assert pair_err <= 1e-6


def test_criterion_03_free_envelope_domination(long_run):
    _, ensemble = long_run
    grid = mean_density(ensemble)
    worst = -math.inf
    for k, t in enumerate(ensemble.times):
        if t not in (1.0, 2.0, 5.0):
            continue
        envelope = 0.5 + float(t)           # psi rho0 + phi with m = 0
        worst = max(worst, grid.values[k] - envelope - 3.0 * grid.stderr[k])
    passed = worst <= 0.0
    record_criterion(3, "interacting density dominated by the free envelope",
                     passed, f"worst excess over 0.5 + t: {worst:+.3e}")
    assert worst <= 0.0


def test_criterion_04_stationary_density_cap(long_run):
    params, ensemble = long_run
    grid = mean_density(ensemble)
    cap = max(0.5, params.b_norm / float(params.kernel.radial(0.0)))
    density_excess = -math.inf
    for k, t in enumerate(ensemble.times):
        if float(t) < 5.0:
            continue
        density_excess = max(density_excess,
                             grid.values[k] - cap - 3.0 * grid.stderr[k])
    partition = CellPartition(params.window, 1.0)
    counts = np.stack([ensemble.counts_in(cell) for cell in partition],
                      axis=0).astype(float)       # (cells, replicas, times)
    second = (counts**2).mean(axis=1)             # mean N_x^2 per (cell, t)
    pair_worst = -math.inf
    for i in range(counts.shape[0]):
        for j in range(i + 1, counts.shape[0]):
            cross = (counts[i] * counts[j]).mean(axis=0)
            gap = cross - 0.5 * (second[i] + second[j])
            pair_worst = max(pair_worst, float(np.max(gap)))
    passed = density_excess <= 0.0 and pair_worst <= 1e-12
    record_criterion(
        4, "stationary density cap and two-cell second-moment bound", passed,
        f"density excess over {cap:g} + 3 sigma: {density_excess:+.3f}; "
        f"two-cell bound residual {pair_worst:+.2e}")
    assert pair_worst <= 1e-12
    assert density_excess <= 0.0, (
        f"measured density exceeds the {cap:g} cap by {density_excess:+.3f} "
        "beyond 3 sigma")


def test_criterion_05_factorial_moment_envelope(long_run):
    params, ensemble = long_run
    partition = CellPartition(params.window, 1.0)
    a_cell = cell_infimum(params.kernel, partition.separation_box())
    cell_volume = partition.cell_side ** params.dimension
    kappa = max(cell_volume * math.exp(params.theta0), 0.5,
                params.b_norm * cell_volume / a_cell)
    series = moment_series(ensemble, partition, l_max=4, n_max=4)
    env_worst = -math.inf
    for l in range(1, 5):
        bound = kappa**l / math.factorial(l)
        gap = series.factorial[:, :, l - 1] - bound \
            - 3.0 * series.factorial_stderr[:, :, l - 1]
        env_worst = max(env_worst, float(np.max(gap)))
    q0 = [0.5**l / math.factorial(l) for l in range(1, 5)]
    t_grid = (0.0,) + tuple(float(t) for t in ensemble.times)
    system = moment_bound_system(q0, params.b_norm * cell_volume, a_cell,
                                 t_grid, kappa0=cell_volume)
    traj = np.asarray(system.trajectories)
    sys_worst = -math.inf
    for k in range(ensemble.n_times):
        for l in range(1, 5):
            meas = series.factorial[k, :, l - 1] \
                - 3.0 * series.factorial_stderr[k, :, l - 1]
            sys_worst = max(sys_worst,
                            float(np.max(meas - traj[k + 1][l - 1])))
    passed = env_worst <= 0.0 and sys_worst <= 0.0
    record_criterion(
        5, "factorial-moment envelope and comparison-system domination",
        passed, f"kappa {kappa:.4g}; envelope excess {env_worst:+.3e}; "
                f"system excess {sys_worst:+.3e}")
    assert env_worst <= 0.0
    assert sys_worst <= 0.0


def brute_force_partition_counts(n):
    """Number of set partitions of n elements into exactly l blocks, by
    explicit enumeration of restricted growth strings."""
    counts = {}

    def rec(i, blocks):
        if i == n:
            counts[blocks] = counts.get(blocks, 0) + 1
            return
        for b in range(blocks + 1):
            rec(i + 1, max(blocks, b + 1))
    rec(0, 0)
    return counts


def test_criterion_06_count_identities():
    gen = np.random.default_rng(6)
    box = Box([0.0], [1.0])
    identity_failures = 0
    for _ in range(1000):
        n_points = int(gen.integers(0, 13))
        power = int(gen.integers(1, 9))
        pts = gen.uniform(0.0, 1.0, size=(n_points, 1))
        total = sum(math.factorial(l) * stirling(power, l)
                    * factorial_moment(pts, box, l)
                    for l in range(1, power + 1))
        if total != n_points**power:
            identity_failures += 1
    stirling_failures = 0
    for n in range(1, 11):
        counts = brute_force_partition_counts(n)
        for l in range(0, n + 1):
            if stirling(n, l) != counts.get(l, 0):
                stirling_failures += 1
    passed = identity_failures == 0 and stirling_failures == 0
    record_criterion(
        6, "count-power and partition-count identities", passed,
        f"{identity_failures}/1000 power identities failed, "
        f"{stirling_failures} partition counts differ (n <= 10)")
    assert identity_failures == 0
    assert stirling_failures == 0


def test_criterion_07_small_torus_occupation_law():
    with pytest.warns(UserWarning, match="discontinuous"):
        kernel = CompetitionKernel.top_hat(40.0, 0.5, 1)
    params = ModelParams(Window([1.0]), kernel, RateField.constant(3.6, 1),
                         RateField.constant(0.5, 1))
    snapshots = (0.5, 2.0)
    replicas = 10_000
    plan = ReplicaPlan(replicas=replicas, base_seed=7, snapshots=snapshots,
                       initial=RateField.constant(0.0, 1))
    ensemble, _ = run_replicas(params, plan, threads=4)
    counts = ensemble.counts_in(params.window.domain)
    # birth-death chain on {0..3}: up rate b V, down rate m n + 2 a C(n, 2)
    generator = np.zeros((4, 4))
    for n in range(3):
        generator[n, n + 1] = 3.6
    for n in range(1, 4):
        generator[n, n - 1] = 0.5 * n + 40.0 * n * (n - 1)
    np.fill_diagonal(generator, -generator.sum(axis=1))
    worst = -math.inf
    for k, t in enumerate(snapshots):
        law = scipy.linalg.expm(generator * t)[0]
        empirical = np.bincount(np.minimum(counts[:, k], 3),
                                minlength=4) / replicas
        sigma = np.sqrt(np.maximum(law * (1.0 - law), 1e-12) / replicas)
        worst = max(worst, float(np.max(np.abs(empirical - law)
                                        - 3.0 * sigma)))
    passed = worst <= 0.0
    record_criterion(
        7, "small-torus occupation law matches the generator exponential",
        passed, f"worst |dev| - 3 sigma over 8 states: {worst:+.3e}")
    assert worst <= 0.0


def test_criterion_08_continuation_schedule_horizon():
    schedule = continuation_schedule(1.0, 1.0, 0.0, horizon=10.0, kappa=0.4)
    residual = float(np.max(schedule.identity_residuals()))
    passed = schedule.total_time > 10.0 and schedule.steps <= 10**6 \
        and residual <= 1e-12
    record_criterion(
        8, "continuation schedule reaches a long horizon", passed,
        f"{schedule.steps} steps, total time {schedule.total_time:.3f}, "
        f"max step-identity residual {residual:.2e}")
    assert schedule.total_time > 10.0
    assert schedule.steps <= 10**6
    assert residual <= 1e-12


def test_criterion_09_integrator_convergence_order():
    params = constant_params(CompetitionKernel.zero(1), 1.0, 2.5)
    exact = (1.0 - math.exp(-5.0)) / 2.5
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        state = HierarchyState.translation_invariant(params, 16, 0.0)
        traj = integrate(state, 2.0, dt, n_max=2)
        errors.append(abs(traj.final_density() - exact))
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    passed = all(12.0 <= r <= 20.0 for r in ratios)
    record_criterion(
        9, "integrator error falls fourth-order under step halving", passed,
        "halving ratios " + ", ".join(f"{r:.1f}" for r in ratios))
    for r in ratios:
        assert 12.0 <= r <= 20.0


def test_criterion_10_manifest_rerun_reproducibility(tmp_path):
    cfg = {
        "dimension": 1,
        "sides": [10.0],
        "kernel": {"kind": "gaussian", "amplitude": 1.0,
                   "range": 1.0 / math.sqrt(2.0 * math.pi)},
        "b": {"kind": "constant", "value": 1.0},
        "m": {"kind": "constant", "value": 0.5},
        "initial": {"kind": "poisson", "density": 0.5},
    }
    config = tmp_path / "model.json"
    config.write_text(json.dumps(cfg, indent=1))
    first = tmp_path / "first"
    code = main(["simulate", "--config", str(config), "--out", str(first),
                 "--seed", "31", "--replicas", "12", "--snapshots", "0.5,1.0",
                 "--cell-side", "1.0", "--threads", "1"])
    assert code == 0
    manifest = json.loads((first / "manifest.json").read_text())
    args = manifest["arguments"]
    second = tmp_path / "second"
    code = main(["simulate",
                 "--config", manifest["config_path"],
                 "--out", str(second),
                 "--seed", str(manifest["seed"]),
                 "--replicas", str(args["replicas"]),
                 "--snapshots", ",".join(repr(t) for t in args["snapshots"]),
                 "--max-events", str(args["max_events"]),
                 "--cell-side", repr(args["cell_side"]),
                 "--lmax", str(args["l_max"]),
                 "--nmax", str(args["n_max"]),
                 "--k2-bins", str(args["k2_bins"]),
                 "--threads", "8"])
    assert code == 0
    names = sorted(p.name for p in first.glob("*.csv"))
    mismatched = [name for name in names
                  if (first / name).read_bytes() != (second / name).read_bytes()]
    passed = not mismatched and len(names) >= 5
    record_criterion(
        10, "manifest rerun is byte-identical across thread counts", passed,
        f"{len(names)} CSV files compared, mismatches: {mismatched or 'none'}")
    assert not mismatched
    assert len(names) >= 5
