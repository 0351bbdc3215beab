"""Event-driven simulator: initial sampling, event mechanics, determinism."""

import contextlib
import functools
import math
import os
import pickle
import signal
import time
import warnings

import numpy as np
import pytest
import scipy.stats

from contpop import (
    Box,
    CappedRunError,
    CompetitionKernel,
    ModelParams,
    RateField,
    ReplicaPlan,
    SimulationState,
    Window,
    mean_density,
    run_replicas,
    simulator,
)
from conftest import brute_death_rate, gaussian_unit_kernel, make_params
from reference_engine import ReferenceState, neighbors, views

L = 10.0


def free_params(b=1.0, m=1.0):
    return make_params(window=Window([L]),
                       kernel=CompetitionKernel("gaussian", 1), b=b, m=m)


# ----------------------------------------------------------- initial states

def seeded(initial, params, rng):
    """The start that `SimulationState.seed_initial` inserts, drawn from
    `rng`."""
    state = SimulationState(params, rng)
    state.seed_initial(initial)
    return state.snapshot()


def test_poisson_initial_count_distribution(rng):
    params = free_params()
    counts = np.array([
        seeded(RateField.constant(0.5, 1), params, rng).shape[0]
        for _ in range(3000)])
    mean = 0.5 * L
    assert abs(counts.mean() - mean) <= 4.0 * math.sqrt(mean / 3000)
    hi = 12
    observed = np.bincount(np.minimum(counts, hi), minlength=hi + 1)
    pmf = np.array([scipy.stats.poisson.pmf(k, mean) for k in range(hi)])
    expected = np.append(pmf, 1.0 - pmf.sum()) * counts.size
    stat = scipy.stats.chisquare(observed, expected)
    assert stat.pvalue > 1e-4


def test_poisson_initial_positions_uniform(rng):
    params = free_params()
    points = np.concatenate([
        seeded(RateField.constant(2.0, 1), params, rng)
        for _ in range(200)])
    stat = scipy.stats.kstest(points.ravel() / L, "uniform")
    assert stat.pvalue > 1e-4


def test_poisson_initial_with_field_density(rng):
    params = free_params()
    bump = RateField.gaussian_bump(3.0, [5.0], 0.5, Box([0.0], [L]))
    mean = bump.integral_over(params.window.domain)
    counts = np.array([
        seeded(bump, params, rng).shape[0]
        for _ in range(1500)])
    assert abs(counts.mean() - mean) <= 4.0 * math.sqrt(mean / 1500)
    pts = np.concatenate([
        seeded(bump, params, rng) for _ in range(300)])
    # rejection sampling should concentrate points around the bump center
    assert np.mean(np.abs(pts.ravel() - 5.0)) < 1.0


def test_explicit_initial(rng):
    # points are the start as they are, and draw nothing from the stream
    params = free_params()
    state = rng.bit_generator.state
    points = np.array([[1.0], [2.0]])
    assert np.array_equal(seeded(points, params, rng), points)
    assert rng.bit_generator.state == state


def test_empty_initial_density_draws_no_number():
    # an `empty` start is density 0: its Poisson count of mean 0 draws no
    # number, so the event loop's stream is that of a start with no points
    params = free_params()
    rngs = [np.random.Generator(np.random.Philox(key=7)) for _ in range(2)]
    assert seeded(RateField.constant(0.0, 1), params,
                  rngs[0]).shape == (0, 1)
    assert rngs[0].random() == rngs[1].random()


# ------------------------------------------------------------ single events

def test_single_particle_survival_is_exponential():
    params = free_params(b=0.0, m=2.0)
    times = []
    for r in range(2000):
        state = SimulationState(params, np.random.default_rng(r))
        state.insert(np.array([5.0]))
        assert state.step() == "death"
        times.append(state.t)
        assert state.n == 0
        assert state.step() == "halted"
    stat = scipy.stats.kstest(times, "expon", args=(0.0, 0.5))
    assert stat.pvalue > 1e-4


def test_pair_interaction_across_the_seam():
    with pytest.warns(UserWarning, match="discontinuous"):
        kernel = CompetitionKernel("top-hat", 1, 3.0, 1.0)
    params = make_params(window=Window([L]), kernel=kernel, b=0.0, m=0.25)
    state = SimulationState(params, np.random.default_rng(0))
    state.insert(np.array([0.2]))
    state.insert(np.array([9.8]))  # 0.4 apart through the boundary
    assert views(state).rate.tolist() == pytest.approx([3.25, 3.25])
    assert state.d_tot == pytest.approx(6.5)
    state.remove(0)
    assert state.n == 1
    assert state.d_tot == pytest.approx(0.25)


def test_insert_grows_storage_and_audit_agrees():
    params = make_params(window=Window([L]), kernel=gaussian_unit_kernel(1),
                         b=1.0, m=0.5)
    state = SimulationState(params, np.random.default_rng(1))
    gen = np.random.default_rng(7)
    for x in gen.uniform(0.0, L, size=200):
        state.insert(np.array([x]))
    assert state.n == 200
    assert state.audit() <= 1e-9


def test_insert_refuses_a_non_finite_position():
    # a nan coordinate would take cell 0 and no neighbours, an infinite one
    # the last cell: either leaves the rates wrong
    state = SimulationState(free_params(), np.random.default_rng(0))
    for x in ([math.nan], [math.inf], np.array([-math.inf])):
        with pytest.raises(ValueError, match="finite numbers"):
            state.insert(x)
    assert state.n == 0 and state.d_tot == 0.0


def test_insert_refuses_a_position_of_the_wrong_length():
    state = SimulationState(make_params(window=Window([4.0, 4.0])),
                            np.random.default_rng(0))
    for x in ([], [1.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]):
        with pytest.raises(ValueError, match="2 finite numbers"):
            state.insert(x)
    assert state.n == 0 and state.insert([1.0, 2.0]) == 0


def test_insert_refuses_a_position_outside_the_domain():
    # 15.2 would be filed in the edge cell at 10, whose stencil misses the
    # particle at 5.0 that its periodic image at 5.2 competes with
    params = make_params(window=Window([L]), kernel=CompetitionKernel(
        "gaussian", 1, 1.0, 0.5, r_cut=2.0), m=0.5)
    state = SimulationState(params, np.random.default_rng(0))
    state.insert([5.0])
    for x in ([15.2], [L], [-0.1]):
        with pytest.raises(ValueError, match=r"outside the simulation "
                           r"domain Box\(lo=\[0.0\], hi=\[10.0\]\)"):
            state.insert(x)
    assert views(state).rate.tolist() == [0.5]
    state.insert([5.2])
    pos = np.array([[5.0], [5.2]])
    assert views(state).rate.tolist() == pytest.approx(
        [brute_death_rate(i, pos, params) for i in range(2)])
    assert brute_death_rate(0, pos, params) == pytest.approx(1.423, abs=1e-3)
    # an absorbing window's domain is the core and its buffer, [-1, 5)
    state = SimulationState(make_params(window=Window(
        [4.0], boundary="absorbing-buffer", buffer_width=1.0)),
        np.random.default_rng(0))
    assert state.insert([-1.0]) == 0 and state.insert([4.9]) == 1
    for x in ([-1.01], [5.0]):
        with pytest.raises(ValueError, match="outside the simulation domain"):
            state.insert(x)
    assert state.n == 2


def test_empty_system_without_birth_halts():
    params = free_params(b=0.0, m=1.0)
    plan = ReplicaPlan(replicas=5, base_seed=3, snapshots=(0.0, 1.0, 2.0))
    ensemble, stats = run_replicas(params, plan)
    assert stats.events == 0
    grid = mean_density(ensemble)
    assert np.all(grid.values == 0.0)


def test_snapshot_at_time_zero_returns_initial():
    params = free_params(b=1.0, m=1.0)
    points = [[1.0], [4.0], [7.5]]
    plan = ReplicaPlan(replicas=2, base_seed=9, snapshots=(0.0,),
                       initial=np.array(points))
    ensemble, stats = run_replicas(params, plan)
    for r in range(2):
        assert np.array_equal(ensemble.positions(r, 0), np.asarray(points))
    assert stats.events == 0


# ------------------------------------------------------------ distributions

def test_free_process_matches_exact_density():
    # without competition the mean density is rho0 e^{-mt} + (b/m)(1 - e^{-mt})
    params = free_params(b=1.0, m=1.0)
    plan = ReplicaPlan(replicas=150, base_seed=42,
                       snapshots=(0.0, 1.0, 2.0, 4.0),
                       initial=RateField.constant(2.0, 1))
    ensemble, _ = run_replicas(params, plan)
    grid = mean_density(ensemble)
    cap = max(2.0, 1.0)
    for k, t in enumerate(plan.snapshots):
        exact = 2.0 * math.exp(-t) + (1.0 - math.exp(-t))
        assert abs(grid.values[k] - exact) <= 3.0 * grid.stderr[k] + 1e-12
        assert grid.values[k] <= cap + 3.0 * grid.stderr[k]


def test_density_monotone_in_birth_rate():
    kernel = gaussian_unit_kernel(1)
    low = make_params(window=Window([L]), kernel=kernel, b=0.5, m=0.5)
    high = make_params(window=Window([L]), kernel=kernel, b=1.5, m=0.5)
    plan = ReplicaPlan(replicas=100, base_seed=5, snapshots=(3.0,))
    grid_low = mean_density(run_replicas(low, plan)[0])
    grid_high = mean_density(run_replicas(high, plan)[0])
    gap = grid_high.values[0] - grid_low.values[0]
    sigma = math.hypot(grid_low.stderr[0], grid_high.stderr[0])
    assert gap > 3.0 * sigma


def test_periodic_audit_keeps_rates_tight(monkeypatch):
    monkeypatch.setattr("contpop.simulator.AUDIT_PERIOD", 512)
    params = make_params(window=Window([L]), kernel=gaussian_unit_kernel(1),
                         b=2.0, m=0.2)
    plan = ReplicaPlan(replicas=2, base_seed=17, snapshots=(8.0,))
    _, stats = run_replicas(params, plan)
    assert stats.events > 512  # the audit actually ran
    assert stats.max_audit_residual <= 1e-6


# -------------------------------------------------------------- determinism

def test_reruns_are_bitwise_identical():
    params = make_params(window=Window([L]), kernel=gaussian_unit_kernel(1),
                         b=1.0, m=0.2)
    plan = ReplicaPlan(replicas=20, base_seed=4242, snapshots=(1.0, 2.0),
                       initial=RateField.constant(0.5, 1))
    first, stats1 = run_replicas(params, plan, threads=1)
    second, stats2 = run_replicas(params, plan, threads=1)
    threaded, stats4 = run_replicas(params, plan, threads=4)
    for ensemble in (second, threaded):
        assert np.array_equal(first.points, ensemble.points)
        assert np.array_equal(first.counts, ensemble.counts)
    assert stats1 == stats2 == stats4


def test_capped_run_error_names_replica():
    params = free_params(b=5.0, m=0.1)
    plan = ReplicaPlan(replicas=3, base_seed=1, snapshots=(50.0,),
                       max_events=10)
    with pytest.raises(CappedRunError, match="replica") as info:
        run_replicas(params, plan)
    assert info.value.replica in range(3)
    assert info.value.events > 10


def test_capped_run_error_survives_pickling():
    error = pickle.loads(pickle.dumps(CappedRunError(2, 11, 3.5)))
    assert isinstance(error, CappedRunError)
    assert (error.replica, error.events, error.t) == (2, 11, 3.5)
    assert str(error) == str(CappedRunError(2, 11, 3.5))


def test_capped_run_error_crosses_worker_processes():
    params = free_params(b=5.0, m=0.1)
    plan = ReplicaPlan(replicas=3, base_seed=1, snapshots=(50.0,),
                       max_events=10)
    with pytest.raises(CappedRunError, match="replica") as info:
        run_replicas(params, plan, threads=2)
    assert info.value.replica in range(3)
    assert info.value.events > 10


# ------------------------------------------------------- worker dispatch

def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _within(seconds):
    """Fail with TimeoutError if the block runs longer than `seconds`
    (the alarm is this process's; forked workers do not inherit it)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def twelve_cpus(monkeypatch):
    """Worker counts up to 12 on any host: run_replicas caps the workers
    at os.cpu_count()."""
    monkeypatch.setattr(os, "cpu_count", lambda: 12)


def _dispatch_plan(max_events=10**8):
    return ReplicaPlan(replicas=7, base_seed=32, snapshots=(1.0, 3.0),
                       initial=RateField.constant(0.8, 1),
                       max_events=max_events)


def _dispatch_params():
    return make_params(window=Window([L]), kernel=gaussian_unit_kernel(1),
                       b=1.5, m=0.3)


def test_worker_counts_give_the_same_ensemble(twelve_cpus):
    # 7 replicas in 1, 2, 3 and 7 ranges; 12 threads is 7 workers
    params, plan = _dispatch_params(), _dispatch_plan()
    first, stats = run_replicas(params, plan, threads=1)
    assert stats.events > 0 and len(stats.replica_events) == 7
    for threads in (2, 3, 7, 12):
        ensemble, other = run_replicas(params, plan, threads=threads)
        assert np.array_equal(ensemble.points, first.points)
        assert np.array_equal(ensemble.counts, first.counts)
        assert other == stats
        _assert_no_children()


def test_capped_run_error_names_the_lowest_replica(twelve_cpus):
    # the event budget admits replicas 0 and 1 (the parent's range at 3
    # workers) and caps at least two later ones, in different ranges
    params = _dispatch_params()
    events = run_replicas(params, _dispatch_plan())[1].replica_events
    budget = max(events[:2])
    capped = [r for r, n in enumerate(events) if n > budget]
    assert len(capped) >= 2 and capped[0] >= 2 and capped[-1] >= 4
    plan = _dispatch_plan(max_events=budget)
    for threads in (1, 2, 3, 7):
        with pytest.raises(CappedRunError) as info:
            run_replicas(params, plan, threads=threads)
        assert info.value.replica == capped[0]
        _assert_no_children()


@pytest.mark.parametrize("error", [CappedRunError, KeyboardInterrupt])
def test_an_error_in_the_first_range_kills_the_workers(error, monkeypatch,
                                                       twelve_cpus):
    # the workers would run for a minute; the parent's range fails first,
    # on the event budget or on an interrupt
    run_range = simulator._run_range

    def stalled(params, plan, replicas):
        if replicas.start > 0:
            time.sleep(60)
        elif error is KeyboardInterrupt:
            raise KeyboardInterrupt
        return run_range(params, plan, replicas)

    monkeypatch.setattr(simulator, "_run_range", stalled)
    plan = ReplicaPlan(replicas=6, base_seed=1, snapshots=(50.0,),
                       max_events=10)
    with _within(30), pytest.raises(error):
        run_replicas(free_params(b=5.0, m=0.1), plan, threads=3)
    _assert_no_children()


@pytest.mark.parametrize("death", ["exit", "kill"])
def test_a_worker_that_dies_without_results_raises(death, monkeypatch,
                                                   twelve_cpus):
    run_range = simulator._run_range

    def dying(params, plan, replicas):
        if replicas.start == 4:   # the last of the three ranges
            if death == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return run_range(params, plan, replicas)

    monkeypatch.setattr(simulator, "_run_range", dying)
    status = 3 if death == "exit" else -signal.SIGKILL
    with _within(30), pytest.raises(
            RuntimeError, match=f"replicas 4 to 6 ended with status "
            f"{status} before sending its results"):
        run_replicas(_dispatch_params(), _dispatch_plan(), threads=3)
    _assert_no_children()


@functools.cache
def _drift_params(b):
    return make_params(window=Window([L]), kernel=gaussian_unit_kernel(1),
                       b=b, m=0.0)


def _drifted_state(b, seed=0):
    """m = 0: a lone particle at 2.0 whose rate, cell sum and the death
    total sit a few ulps below their true value 0, as float drift leaves
    them when its competitors die, next to an interacting pair at 6.0."""
    params = _drift_params(b)
    state = SimulationState(params, np.random.default_rng(seed))
    lone = state.insert([2.0])
    view = views(state)
    assert view.rate[lone] == 0.0
    drift = 4 * math.ulp(1.0)   # a few ulps of a unit rate
    view.rate[lone] -= drift
    view.cell_rate[view.cell_of[lone]] -= drift
    state._s.d_tot -= drift
    return state, lone


def test_death_selection_skips_a_negative_rate():
    picks = set()
    for u in np.random.default_rng(8).random(2000):
        state, lone = _drifted_state(b=1.0)
        state.insert([6.0])
        state.insert([6.3])
        view = views(state)
        assert view.rate[lone] < 0.0 and \
            view.cell_rate[view.cell_of[lone]] < 0.0
        assert view.cells[view.cell_of[lone]].tolist() == [lone]
        picks.add(state._lib.cp_death(state._c, u))   # one death for u
        assert state.stats().selection_fallbacks == 0
    assert picks == {1, 2}


def test_negative_death_total_halts_without_birth():
    state, _ = _drifted_state(b=0.0)
    assert state.d_tot < 0.0
    assert state.step(5.0) == "halted" and state.t == 5.0
    assert state.step() == "halted" and state.t == math.inf
    assert state.events == 0 and state.n == 1


def test_negative_death_total_makes_the_event_a_birth():
    for seed in range(200):
        state, _ = _drifted_state(b=1.0, seed=seed)
        assert state.d_tot < 0.0
        assert state.step() == "birth"


def test_advance_to_infinity_without_birth_empties_and_halts():
    # b = 0: every particle dies and the clock halts at t = inf; drift
    # leaves the final death total of an empty window on either side of 0
    params = make_params(window=Window([L]), kernel=gaussian_unit_kernel(1),
                         b=0.0, m=0.1)
    residuals = []
    for seed in range(12):
        state = SimulationState(params, np.random.default_rng(seed))
        state.seed_initial(RateField.constant(3.0, 1))
        state.advance(math.inf)
        assert state.n == 0 and state.t == math.inf
        assert state.deaths > 0 and state.births == 0
        residuals.append(state.d_tot)
    assert min(residuals) < 0.0 < max(residuals)


def test_non_finite_snapshots_are_rejected():
    for times in ((1.0, math.inf), (math.nan,)):
        with pytest.raises(ValueError, match="finite"):
            ReplicaPlan(replicas=1, base_seed=0, snapshots=times)


def test_rate_sums_add_left_to_right():
    # ten kernel values 0.1 add to 0.9999999999999999 left to right and to
    # 1.0 compensated, as the builtin sum adds floats from Python 3.12
    left = 0.0
    for _ in range(10):
        left += 0.1
    assert left != math.fsum([0.1] * 10) == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # top-hat is flagged
        kernel = CompetitionKernel("top-hat", 1, 0.1, 0.5)
    state = SimulationState(make_params(window=Window([L]), kernel=kernel,
                                        b=1.0, m=0.0),
                            np.random.default_rng(0))
    for _ in range(11):
        state.insert([2.0])
    assert views(state).rate[-1] == left   # m = 0 plus ten values, on insert
    total = 0.0
    for _ in range(11):
        total += left
    state.audit()   # every rate from scratch, then their total
    assert views(state).rate.tolist() == [left] * 11 and state.d_tot == total


# ------------------------------------------------------- scalar hot path

def _rate_cases():
    """(label, params) covering every kernel kind, d = 1..3, both boundary
    modes, and non-constant birth and mortality fields."""
    torus1, torus2, torus3 = Window([L]), Window([8.0, 6.0]), \
        Window([4.0, 4.0, 4.0])
    buffered = Window([L], boundary="absorbing-buffer", buffer_width=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # top-hat is flagged
        top_hat = CompetitionKernel("top-hat", 3, 0.5, 1.0)
    return [
        ("gaussian-1d-periodic", ModelParams(
            torus1, CompetitionKernel("gaussian", 1, 1.0, 0.4),
            RateField.constant(2.0, 1), RateField.constant(0.5, 1))),
        ("exponential-2d-periodic-bump-mortality", ModelParams(
            torus2, CompetitionKernel("exponential", 2, 0.7, 0.3, r_cut=2.5),
            RateField.constant(0.4, 2),
            RateField.gaussian_bump(0.8, [4.0, 3.0], 2.0, torus2.domain))),
        ("top-hat-3d-periodic-tabulated-birth", ModelParams(
            torus3, top_hat,
            RateField.tabulated(np.arange(1.0, 9.0).reshape(2, 2, 2) / 4.0,
                                torus3.domain),
            RateField.constant(0.3, 3))),
        ("tabulated-1d-absorbing-fields", ModelParams(
            buffered,
            CompetitionKernel("tabulated", 1, r_table=[0.0, 0.5, 1.0, 1.5],
                              a_table=[1.0, 0.8, 0.3, 0.0]),
            RateField.gaussian_bump(2.0, [5.0], 3.0, buffered.domain),
            RateField.tabulated([0.2, 0.6, 1.0, 0.4], buffered.domain))),
    ]


@pytest.mark.parametrize("label,params", _rate_cases(),
                         ids=[c[0] for c in _rate_cases()])
def test_scalar_rates_match_referee(label, params):
    state = SimulationState(params, np.random.default_rng(5))
    gen = np.random.default_rng(6)
    domain = params.window.domain
    for x in gen.uniform(domain.lo, domain.hi, size=(40, params.dimension)):
        state.insert(x)
    for _ in range(400):   # engine-drawn births and deaths
        state.step()
    for _ in range(5):
        state.remove(int(gen.integers(state.n)))
    assert state.births > 0 and state.deaths > 5 and state.n >= 5
    pos = state.snapshot()
    referee = [brute_death_rate(i, pos, params) for i in range(len(pos))]
    np.testing.assert_allclose(views(state).rate, referee, rtol=1e-12,
                               atol=0.0)
    assert state.d_tot == pytest.approx(float(np.sum(referee)), rel=1e-12)
    assert state.audit() <= 1e-9


def _neighbor_reference(state, grid, params, x, exclude=-1):
    """All-pairs reference for the compiled neighbour scan: numpy
    minimum-image distances to every row, kept within r_cut and put in the
    scan's order (stencil cells in ascending order, then cell members).  A
    row within r_cut outside the stencil of `grid`, the `ReferenceState` of
    the same params, makes `index` raise."""
    view = views(state)
    r = np.sqrt(np.sum(np.square(params.window.displacement(
        np.asarray(x, dtype=float), view.pos)), axis=-1))
    rows = [j for j in range(state.n)
            if r[j] <= params.kernel.r_cut and j != exclude]
    stencil = grid.stencils[grid.cell_index(x)]
    rows.sort(key=lambda j: (stencil.index(view.cell_of[j]),
                             view.slot_of[j]))
    return rows, [grid._kernel(float(r[j])) for j in rows]


def _absorbing(sides, width):
    return Window(sides, boundary="absorbing-buffer", buffer_width=width)


# (label, window, r_cut): every interacting window has at least two cells per
# axis (r_cut <= L/2 on a torus, buffer >= r_cut otherwise); two and three
# cells make stencils whose -1 and +1 neighbours coincide or wrap
NEIGHBOR_CASES = [
    ("1d-periodic-2", Window([10.0]), 5.0),
    ("1d-periodic-5", Window([10.0]), 2.0),
    ("1d-absorbing-3", _absorbing([2.0], 1.5), 1.5),
    ("2d-periodic-3x2", Window([6.0, 4.0]), 2.0),
    ("2d-periodic-4x5", Window([8.0, 10.0]), 2.0),
    ("2d-absorbing-2x5", _absorbing([0.5, 3.0], 1.0), 1.0),
    ("3d-periodic-2x3x4", Window([4.0, 6.0, 8.0]), 2.0),
    ("3d-absorbing-3x3x3", _absorbing([1.0, 1.0, 1.0], 1.0), 1.0),
]


@pytest.mark.parametrize("label,window,r_cut", NEIGHBOR_CASES,
                         ids=[c[0] for c in NEIGHBOR_CASES])
def test_neighbors_match_all_pairs_reference(label, window, r_cut):
    d = window.dimension
    params = make_params(window=window, b=1.0, m=0.5,
                         kernel=CompetitionKernel("gaussian", d, 1.0, 0.7,
                                                  r_cut=r_cut))
    state = SimulationState(params, np.random.default_rng(3))
    lo, hi = window.domain.lo, window.domain.hi
    # cell edges: every corner of the simulator grid inside the domain
    edges = np.stack(np.meshgrid(*[
        lo[a] + state.cell_sides[a] *
        np.arange(state.n_cells[a]) for a in range(d)], indexing="ij"),
        axis=-1).reshape(-1, d)
    gen = np.random.default_rng(11)
    points = [*gen.uniform(lo, hi, size=(60, d)), *edges]
    if window.boundary == "periodic":
        # partners at exactly half a side along the first axis
        shift = np.zeros(d)
        shift[0] = window.sides[0] / 2.0
        points += [np.mod(p + shift, window.sides) for p in edges]
    for p in points:
        state.insert(p)
    for _ in range(10):   # swap-removes reorder rows and cell members
        state.remove(int(gen.integers(state.n)))
    grid = ReferenceState(params)
    queries = [(x, i) for i, x in enumerate(views(state).pos.tolist())]
    queries += [(p.tolist(), -1) for p in edges]
    queries += [(p.tolist(), -1) for p in gen.uniform(lo, hi, size=(20, d))]
    found = 0
    for x, exclude in queries:
        got = neighbors(state, x, exclude)
        expected = _neighbor_reference(state, grid, params, x, exclude)
        assert got == expected, (x, exclude)
        found += len(got[0])
    assert found > len(queries)


def test_neighbors_without_interaction_are_empty():
    params = make_params(window=Window([4.0, 4.0]), b=1.0, m=0.5)
    state = SimulationState(params, np.random.default_rng(3))
    assert state.n_cells == [1, 1]
    for p in ([0.0, 0.0], [0.0, 0.0], [2.0, 2.0]):
        state.insert(p)
    assert neighbors(state, [0.0, 0.0]) == ([], [])
    assert views(state).rate.tolist() == [0.5, 0.5, 0.5]


# --------------------------------------------------------------- validation

def test_plan_validation():
    with pytest.raises(ValueError, match="replica"):
        ReplicaPlan(replicas=0, base_seed=0, snapshots=(1.0,))
    with pytest.raises(ValueError, match="64"):
        ReplicaPlan(replicas=1, base_seed=-1, snapshots=(1.0,))
    with pytest.raises(ValueError, match="64"):
        ReplicaPlan(replicas=1, base_seed=2**64, snapshots=(1.0,))
    with pytest.raises(ValueError, match="snapshots"):
        ReplicaPlan(replicas=1, base_seed=0, snapshots=())
    with pytest.raises(ValueError, match="snapshots"):
        ReplicaPlan(replicas=1, base_seed=0, snapshots=(2.0, 1.0))
    with pytest.raises(ValueError, match="snapshots"):
        ReplicaPlan(replicas=1, base_seed=0, snapshots=(-1.0,))
    with pytest.raises(ValueError, match="max_events"):
        ReplicaPlan(replicas=1, base_seed=0, snapshots=(1.0,), max_events=0)


def test_thread_count_validated():
    params = free_params()
    plan = ReplicaPlan(replicas=1, base_seed=0, snapshots=(1.0,))
    with pytest.raises(ValueError, match="threads"):
        run_replicas(params, plan, threads=0)
