"""Ensemble estimators: densities, pair correlations, cell moments, CSV."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contpop import (
    Box,
    CellPartition,
    SnapshotEnsemble,
    Window,
    density_estimate,
    factorial_moment,
    mean_density,
    moment_series,
    pair_correlation_estimate,
    raw_moment_from_factorials,
    read_csv_columns,
    write_csv,
    write_k1_csv,
    write_k2_csv,
    write_moments_csv,
)
from contpop import estimators
from contpop.estimators import MAX_MOMENT_ORDER, _replica_stats


def poisson_ensemble(rng, kappa, L=10.0, replicas=200, times=(0.0,)):
    """Exact Poisson(kappa) point process on the 1-d torus, iid replicas."""
    win = Window([L])
    configs = []
    for _ in range(replicas):
        reps = []
        for _ in times:
            n = rng.poisson(kappa * L)
            reps.append(rng.uniform(0.0, L, size=(n, 1)))
        configs.append(reps)
    return SnapshotEnsemble(win, list(times), configs)


def fixed_ensemble(counts_positions, L=4.0, times=(0.0,)):
    win = Window([L])
    configs = [[np.asarray(pos, dtype=float).reshape(-1, 1) for pos in rep]
               for rep in counts_positions]
    return SnapshotEnsemble(win, list(times), configs)


# ---------------------------------------------------------------- factorial

def test_factorial_moment_small_cases():
    pos = np.array([[0.5], [1.5], [2.5]])
    box = Box([0.0], [3.0])
    assert factorial_moment(pos, box, 0) == 1
    assert factorial_moment(pos, box, 1) == 3
    assert factorial_moment(pos, box, 2) == 3
    assert factorial_moment(pos, box, 3) == 1
    assert factorial_moment(pos, box, 4) == 0
    assert factorial_moment(pos, Box([10.0], [11.0]), 1) == 0
    with pytest.raises(ValueError):
        factorial_moment(pos, box, -1)


def test_raw_moment_identity_exact():
    for N in range(0, 13):
        facts = [math.comb(N, l) for l in range(1, 9)]
        for n in range(0, 9):
            assert raw_moment_from_factorials(facts, n) == N**n
    with pytest.raises(ValueError):
        raw_moment_from_factorials([1.0], 2)


# ----------------------------------------------------------------- ensemble

def test_ensemble_counts_and_validation():
    ens = fixed_ensemble([[[0.5, 1.5]], [[2.5]]])
    counts = ens.counts_in(Box([0.0], [2.0]))
    assert counts.tolist() == [[2], [0]]
    assert ens.n_replicas == 2 and ens.n_times == 1
    with pytest.raises(ValueError):
        SnapshotEnsemble(Window([4.0]), [0.0, 1.0],
                         [[np.zeros((0, 1))]])  # one config for two times


def test_counts_in_matches_per_configuration_counts():
    gen = np.random.default_rng(4)
    window = Window([4.0, 3.0])
    configs = [[gen.uniform(-0.5, 4.5, size=(int(n), 2)) for n in row]
               for row in gen.integers(0, 30, size=(5, 3))]
    configs[1][2] = np.zeros((0, 2))
    configs[3][0] = np.array([[1.0, 1.0], [3.0, 2.0], [1.0, 2.0]])  # faces
    ensemble = SnapshotEnsemble(window, [0.0, 1.0, 2.0], configs)
    for box in (Box([1.0, 1.0], [3.0, 2.0]), window.core):
        expected = [[int(np.count_nonzero(box.contains_points(pos)))
                     for pos in reps] for reps in configs]
        counts = ensemble.counts_in(box)
        assert counts.dtype == np.int64
        assert counts.tolist() == expected
    empty = SnapshotEnsemble(window, [0.0], [[np.zeros((0, 2))]])
    assert empty.counts_in(window.core).tolist() == [[0]]


# ---------------------------------------------------------------- partition

def test_partition_geometry():
    part = CellPartition(Window([4.0]), 1.0)
    assert len(part) == 4
    assert part.shape == (4,)
    sep = part.separation_box()
    assert np.allclose(sep.lo, [-1.0]) and np.allclose(sep.hi, [1.0])
    part2 = CellPartition(Window([2.0, 3.0]), 1.0)
    assert len(part2) == 6


def test_partition_rejects_non_tiling():
    with pytest.raises(ValueError, match="tile"):
        CellPartition(Window([1.0]), 0.3)
    with pytest.raises(ValueError):
        CellPartition(Window([1.0]), -1.0)


def test_partition_counts():
    part = CellPartition(Window([4.0]), 1.0)
    pos = np.array([[0.2], [0.8], [2.5], [3.999]])
    assert part.counts(pos).tolist() == [2, 0, 1, 1]
    assert part.counts(np.empty((0, 1))).tolist() == [0, 0, 0, 0]


def test_partition_ignores_buffer_particles():
    win = Window([4.0], boundary="absorbing-buffer", buffer_width=1.0)
    part = CellPartition(win, 1.0)
    pos = np.array([[-0.5], [0.5], [4.5]])  # two live in the buffer
    assert part.counts(pos).sum() == 1


# ---------------------------------------------------------------- densities

def test_mean_density_deterministic():
    ens = fixed_ensemble([[[0.5, 1.5, 2.5]]], L=4.0)
    grid = mean_density(ens)
    assert grid.values[0] == pytest.approx(0.75)
    assert grid.stderr[0] == 0.0  # single replica


def test_mean_density_two_replicas_stderr():
    ens = fixed_ensemble([[[0.5]], [[1.5, 2.5, 3.5]]], L=4.0)
    grid = mean_density(ens)
    dens = np.array([0.25, 0.75])
    assert grid.values[0] == pytest.approx(0.5)
    assert grid.stderr[0] == pytest.approx(dens.std(ddof=1) / math.sqrt(2))


def test_mean_density_poisson(rng):
    kappa = 1.3
    ens = poisson_ensemble(rng, kappa, replicas=400)
    grid = mean_density(ens)
    assert abs(grid.values[0] - kappa) <= 3.0 * grid.stderr[0] + 1e-12
    # stderr should sit near the Poisson prediction sqrt(kappa V)/V/sqrt(R)
    predicted = math.sqrt(kappa * 10.0) / 10.0 / math.sqrt(400)
    assert grid.stderr[0] == pytest.approx(predicted, rel=0.25)


def test_density_estimate_per_cell():
    ens = fixed_ensemble([[[0.5, 0.7, 2.5]]], L=4.0)
    part = CellPartition(ens.window, 1.0)
    grids = density_estimate(ens, part)
    assert len(grids) == 1
    assert grids[0].values.tolist() == [2.0, 0.0, 1.0, 0.0]
    assert np.allclose(grids[0].centers.ravel(), [0.5, 1.5, 2.5, 3.5])


# --------------------------------------------------------- pair correlation

def test_pair_correlation_poisson_is_squared_density(rng):
    kappa = 1.0
    ens = poisson_ensemble(rng, kappa, replicas=400)
    edges = np.linspace(0.0, 2.0, 9)
    grid = pair_correlation_estimate(ens, edges)
    assert grid.order == 2
    assert np.all(np.abs(grid.values - kappa**2) <= 4.0 * grid.stderr + 1e-12)
    pooled = np.mean(grid.values)
    pooled_err = np.sqrt(np.sum(grid.stderr**2)) / grid.stderr.size
    assert abs(pooled - kappa**2) <= 3.5 * pooled_err


def test_pair_correlation_exact_two_particles():
    # one replica, two particles at distance 1: a single ordered pair
    ens = fixed_ensemble([[[1.0, 2.0]]], L=10.0)
    edges = np.array([0.5, 1.5])
    grid = pair_correlation_estimate(ens, edges)
    # 2 ordered pairs / (V=10, shell=2*1)
    assert grid.values[0] == pytest.approx(0.1)


def test_pair_correlation_silent_on_singletons():
    ens = fixed_ensemble([[[1.0]], [[]]], L=10.0)
    grid = pair_correlation_estimate(ens, [0.0, 1.0])
    assert np.all(grid.values == 0.0)


def test_pair_correlation_domain_check():
    ens = fixed_ensemble([[[1.0]]], L=4.0)
    with pytest.raises(ValueError, match="half"):
        pair_correlation_estimate(ens, [0.0, 2.5])
    with pytest.raises(ValueError):
        pair_correlation_estimate(ens, [1.0])
    with pytest.raises(ValueError):
        pair_correlation_estimate(ens, [0.0, 0.0, 1.0])


def test_pair_correlation_uses_minimum_image():
    # points at 0.1 and 9.9 on the 10-torus are 0.2 apart
    ens = fixed_ensemble([[[0.1, 9.9]]], L=10.0)
    grid = pair_correlation_estimate(ens, [0.0, 0.5])
    assert grid.values[0] == pytest.approx(2.0 / (10.0 * 1.0))


def all_pairs_pair_correlation(ensemble, r_edges, time_index=-1):
    """The all-pairs form of `pair_correlation_estimate`: one n x n
    displacement array and `triu_indices` per replica."""
    window = ensemble.window
    r_edges = np.asarray(r_edges, dtype=float)
    shells = estimators._shell_volumes(r_edges, window.dimension)
    per_replica = np.zeros((ensemble.n_replicas, r_edges.size - 1))
    for r in range(ensemble.n_replicas):
        pos = ensemble.positions(r, time_index)
        if window.boundary != "periodic":
            pos = pos[window.core.contains_points(pos)]
        n = pos.shape[0]
        if n < 2:
            continue
        disp = window.displacement(pos[:, None, :], pos[None, :, :])
        dist = np.sqrt(np.sum(np.square(disp), axis=-1))
        hist, _ = np.histogram(dist[np.triu_indices(n, k=1)], bins=r_edges)
        per_replica[r] = 2.0 * hist / (window.volume * shells)
    return _replica_stats(per_replica)


def _assert_pair_correlation_matches(ensemble, edges, time_index=-1):
    grid = pair_correlation_estimate(ensemble, edges, time_index=time_index)
    value, err = all_pairs_pair_correlation(ensemble, edges, time_index)
    assert grid.values.tobytes() == value.tobytes()
    assert grid.stderr.tobytes() == err.tobytes()


# the budget and a larger one, whose blocks span more rows; 16 splits the
# first rows of 17 partners, and 5 cuts every row wider than 5 into pieces,
# with remainders of width 1 to 4, and pads multi-row blocks of shorter
# rows.  A budget of 1, one block per pair, runs in the one-pass test
# below; here it took about a minute for block shapes 5 already covers
@pytest.mark.parametrize("block", [estimators._PAIR_BLOCK, 1 << 16, 16, 5])
@pytest.mark.parametrize("window", [
    Window([10.0]), Window([8.0, 6.0]), Window([4.0, 5.0, 6.0]),
    Window([6.0, 5.0], boundary="absorbing-buffer", buffer_width=1.5)],
    ids=["periodic-1d", "periodic-2d", "periodic-3d", "absorbing-2d"])
def test_blocked_pair_correlation_matches_all_pairs(window, block,
                                                    monkeypatch):
    monkeypatch.setattr(estimators, "_PAIR_BLOCK", block)
    gen = np.random.default_rng(5)
    d = window.dimension
    dom = window.domain
    # n = 0, 1, 2; first rows of 14 to 17 pairs, around a 16-pair block;
    # then larger n, whose blocks span many rows at the default size
    sizes = [0, 1, 2, 15, 16, 17, 18, 40, 333]
    reps = [[gen.uniform(dom.lo, dom.hi, size=(n, d))] for n in sizes]
    # a lattice with separations on the bin edges and at exactly L/2
    side = float(np.min(window.sides))
    grid_1d = np.arange(0.0, side, side / 8.0)
    reps.append([np.stack(np.meshgrid(*([grid_1d] * d), indexing="ij"),
                          axis=-1).reshape(-1, d)])
    ensemble = SnapshotEnsemble(window, [1.0], reps)
    if window.boundary != "periodic":   # particles in the buffer are dropped
        assert any(not np.all(window.core.contains_points(r[0])) for r in reps)
    _assert_pair_correlation_matches(ensemble, np.linspace(0.0, side / 2, 9))
    _assert_pair_correlation_matches(ensemble, [0.0, 0.3, 0.5, 1.25, side / 2])
    # far from equal spacing: the guessed bin of most separations is one to
    # several bins off and corrected
    _assert_pair_correlation_matches(ensemble, [0.0, 1e-3, 2e-3, side / 2])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("error")
def test_pair_bins_when_the_edges_span_almost_nothing():
    # bins / span overflows to inf, so the guessed bin of a separation of 0
    # is 0 * inf = nan; it must still land in the first bin
    edges = np.array([0.0, 1e-323, 2e-323])
    hist = estimators._pair_histograms(Window([10.0]),
                                       np.array([[1.0], [1.0], [3.0]]),
                                       np.zeros(3, dtype=np.intp), 1, edges)
    assert hist.tolist() == [[1, 0]]


def test_pair_correlation_memory_stays_bounded():
    # all pairs at n = 3000 in 2-D take n^2 * 2 * 8 bytes for the
    # displacements alone (144 MB), and more than 300 MB in all.  The block
    # buffers take 33 bytes a pair of the budget (three floats, a key and a
    # flag); allow twice that, and 256 bytes a particle for the arrays of
    # length n: about 1.85 MB at the 2**14 budget
    n = 3000
    gen = np.random.default_rng(9)
    window = Window([48.0, 48.0])
    ensemble = SnapshotEnsemble(window, [0.0],
                                [[gen.uniform(0.0, 48.0, size=(n, 2))]])
    edges = np.linspace(0.0, 24.0, 17)
    tracemalloc.start()
    try:
        grid = pair_correlation_estimate(ensemble, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 66 * estimators._PAIR_BLOCK + 256 * n
    assert np.all(grid.values > 0.0)


def row_block_histogram(window, pos, r_edges, block=1 << 16):
    """The pair histogram of one configuration in row blocks: rows
    [start, stop) against the columns after `start`, pairs j <= i masked,
    about `block` pairs a block."""
    n = pos.shape[0]
    pos = np.asfortranarray(pos)
    hist = np.zeros(r_edges.size - 1, dtype=np.int64)
    start = 0
    while start < n - 1:
        stop = min(start + max(block // (n - 1 - start), 1), n - 1)
        disp = window.displacement(pos[start:stop, None, :],
                                   pos[None, start + 1:, :])
        dist = np.sqrt(np.sum(np.square(disp), axis=-1))
        upper = np.arange(start + 1, n) > np.arange(start, stop)[:, None]
        hist += np.histogram(dist[upper], bins=r_edges)[0]
        start = stop
    return hist


def per_replica_pair_correlation(ensemble, r_edges, time_index):
    """The per-replica form of `pair_correlation_estimate`: the core filter
    and one row-block histogram for each replica in turn."""
    window = ensemble.window
    r_edges = np.asarray(r_edges, dtype=float)
    shells = estimators._shell_volumes(r_edges, window.dimension)
    per_replica = np.zeros((ensemble.n_replicas, r_edges.size - 1))
    for r in range(ensemble.n_replicas):
        pos = ensemble.positions(r, time_index)
        if window.boundary != "periodic":
            pos = pos[window.core.contains_points(pos)]
        hist = row_block_histogram(window, pos, r_edges)
        per_replica[r] = 2.0 * hist / (window.volume * shells)
    return _replica_stats(per_replica)


@pytest.mark.parametrize("block", [estimators._PAIR_BLOCK, 1 << 16, 16, 1])
@pytest.mark.parametrize("window", [
    Window([10.0]), Window([8.0, 6.0]), Window([4.0, 5.0, 6.0]),
    Window([6.0], boundary="absorbing-buffer", buffer_width=1.0),
    Window([6.0, 5.0], boundary="absorbing-buffer", buffer_width=1.5),
    Window([4.0, 4.0, 5.0], boundary="absorbing-buffer", buffer_width=1.0)],
    ids=["periodic-1d", "periodic-2d", "periodic-3d", "absorbing-1d",
         "absorbing-2d", "absorbing-3d"])
def test_one_pass_pair_correlation_matches_per_replica(window, block,
                                                       monkeypatch):
    monkeypatch.setattr(estimators, "_PAIR_BLOCK", block)
    gen = np.random.default_rng(17)
    d = window.dimension
    dom = window.domain
    side = float(np.min(window.sides))
    lattice = np.arange(0.0, side, side / 4.0)
    lattice = np.stack(np.meshgrid(*([lattice] * d), indexing="ij"),
                       axis=-1).reshape(-1, d)
    # empty and one-particle replicas between larger ones, so that blocks
    # start, end and skip inside and across replicas; two snapshots
    sizes = [0, 1, 7, 0, 1, 1, 2, 30, 0, 12, 1, 90, 3, 0]
    reps = [[gen.uniform(dom.lo, dom.hi, size=(n, d)),
             gen.uniform(dom.lo, dom.hi, size=(gen.integers(0, 25), d))]
            for n in sizes]
    reps.insert(5, [lattice, np.empty((0, d))])  # separations on the edges
    reps.append([np.empty((0, d)), np.empty((0, d))])
    ensemble = SnapshotEnsemble(window, [1.0, 2.0], reps)
    if window.boundary != "periodic":   # particles in the buffer are dropped
        assert any(not np.all(window.core.contains_points(r[0])) for r in reps)
    for edges in (np.linspace(0.0, side / 2, 9), [0.0, 0.3, 0.5, 1.25, side / 2],
                  [0.5, 1.0], [0.0, 1e-3, 2e-3, side / 2]):
        for k in (0, -1):
            grid = pair_correlation_estimate(ensemble, edges, time_index=k)
            value, err = per_replica_pair_correlation(ensemble, edges, k)
            assert grid.values.tobytes() == value.tobytes()
            assert grid.stderr.tobytes() == err.tobytes()


# ------------------------------------------------------------- cell moments

def test_moment_series_deterministic_exact():
    ens = fixed_ensemble([[[0.1, 0.2, 1.5]]], L=4.0)
    part = CellPartition(ens.window, 1.0)
    series = moment_series(ens, part, l_max=3, n_max=3)
    # cell 0 holds N=2: q1=2, q2=1, q3=0; raw 2, 4, 8
    assert series.factorial[0, 0].tolist() == [2.0, 1.0, 0.0]
    assert series.raw[0, 0].tolist() == [2.0, 4.0, 8.0]
    assert np.all(series.factorial_stderr == 0.0)
    assert series.cell_side == 1.0


def test_moment_series_poisson_levels(rng):
    kappa = 0.8
    ens = poisson_ensemble(rng, kappa, replicas=300)
    part = CellPartition(ens.window, 1.0)
    series = moment_series(ens, part, l_max=4, n_max=4)
    n_cells = len(part)
    for l in range(1, 5):
        pooled = float(np.mean(series.factorial[0, :, l - 1]))
        err = float(np.sqrt(np.sum(series.factorial_stderr[0, :, l - 1] ** 2))
                    / n_cells)
        expect = kappa**l / math.factorial(l)
        assert abs(pooled - expect) <= 4.0 * err + 1e-12, l
    # raw moments against the Touchard values
    from contpop import touchard
    for n in range(1, 5):
        pooled = float(np.mean(series.raw[0, :, n - 1]))
        err = float(np.sqrt(np.sum(series.raw_stderr[0, :, n - 1] ** 2)) / n_cells)
        assert abs(pooled - touchard(n, kappa)) <= 4.0 * err + 1e-12, n


def test_moment_series_order_caps():
    ens = fixed_ensemble([[[0.5]]], L=4.0)
    part = CellPartition(ens.window, 1.0)
    with pytest.raises(ValueError):
        moment_series(ens, part, l_max=MAX_MOMENT_ORDER + 1)
    with pytest.raises(ValueError):
        moment_series(ens, part, l_max=2, n_max=3)
    with pytest.raises(ValueError):
        moment_series(ens, part, l_max=0)


# ------------------------------------------------------ pointwise inequalities

def test_power_monotonicity_pointwise(rng):
    # N^n <= N^(n+1) whenever N >= 1
    counts = rng.poisson(2.0, size=50) + 1
    for n in range(1, 8):
        assert np.all(counts**n <= counts ** (n + 1))


def test_subadditive_split(rng):
    # N_total^(2^s) <= m^(2^s - 1) sum_cells N_cell^(2^s)
    for _ in range(25):
        cells = rng.poisson(1.5, size=4).astype(object)  # exact ints
        total = int(sum(cells))
        for s in (1, 2, 3):
            p = 2**s
            lhs = total**p
            rhs = 4 ** (p - 1) * sum(int(c) ** p for c in cells)
            assert lhs <= rhs


def test_two_cell_positivity(rng):
    ens = poisson_ensemble(rng, 1.0, replicas=60)
    bx, by = Box([1.0], [2.0]), Box([5.0], [6.0])
    nx = ens.counts_in(bx).astype(float)
    ny = ens.counts_in(by).astype(float)
    cross = float(np.mean(nx * ny))
    assert cross <= 0.5 * float(np.mean(nx**2) + np.mean(ny**2)) + 1e-12


# ------------------------------------------- array path vs per-cell reference

def per_cell_reference(ens, part, l_max, n_max):
    """The estimators cell by cell: core filter, then the exact factorial
    moments of each cell box and the raw moments derived from them."""
    shape = (ens.n_replicas, ens.n_times, len(part))
    fact = np.zeros(shape + (l_max,))
    raw = np.zeros(shape + (n_max,))
    for r in range(ens.n_replicas):
        for k in range(ens.n_times):
            pos = ens.positions(r, k).reshape(-1, ens.window.dimension)
            pos = pos[ens.window.core.contains_points(pos)]
            for c, box in enumerate(part):
                facts = [factorial_moment(pos, box, l)
                         for l in range(1, l_max + 1)]
                fact[r, k, c] = [float(f) for f in facts]
                raw[r, k, c] = [float(raw_moment_from_factorials(facts, n))
                                for n in range(1, n_max + 1)]
    return fact, raw


# (side, cell side): with side 1 and cells of 1/3, a point just below the
# upper face divides to exactly 3 and takes the clip into the last cell
GEOMETRIES = ((2.0, 0.5), (1.0, 1.0 / 3.0), (2.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(dimension=st.integers(1, 3), absorbing=st.booleans(),
       geometry=st.sampled_from(GEOMETRIES), replicas=st.integers(1, 4),
       n_times=st.integers(1, 3), crowd=st.sampled_from((0, 150)),
       seed=st.integers(0, 2**32 - 1))
def test_array_estimators_match_per_cell_reference(
        dimension, absorbing, geometry, replicas, n_times, crowd, seed):
    gen = np.random.default_rng(seed)
    side, h = geometry
    if absorbing:
        win = Window([side] * dimension, boundary="absorbing-buffer",
                     buffer_width=0.5)
    else:
        win = Window([side] * dimension)
    part = CellPartition(win, h)
    lo, hi = win.domain.lo, win.domain.hi
    # special coordinates: cell edges, the upper face (outside the core)
    # and the float just below it (the clip path)
    special = np.array([j * h for j in range(round(side / h))]
                       + [side, np.nextafter(side, 0.0)])
    configs = []
    for _ in range(replicas):
        reps = []
        for _ in range(n_times):
            n = int(gen.choice([0, 1, 5, 12]))   # empty snapshots included
            pos = gen.uniform(lo, hi, size=(n, dimension))
            edge = gen.random((n, dimension)) < 0.4
            pos[edge] = gen.choice(special, size=int(edge.sum()))
            reps.append(pos)
        configs.append(reps)
    if gen.random() < 0.3:                         # an empty replica
        configs[-1] = [np.empty((0, dimension)) for _ in range(n_times)]
    if crowd:                                      # counts with n^8 > 2^53
        configs[0][0] = np.concatenate(
            [configs[0][0], gen.uniform(0.0, h, size=(crowd, dimension))])
    ens = SnapshotEnsemble(win, np.arange(n_times, dtype=float), configs)

    series = moment_series(ens, part, l_max=8, n_max=8)
    fact, raw = per_cell_reference(ens, part, 8, 8)
    for got, ref in ((series.factorial, fact), (series.raw, raw)):
        mean, err = _replica_stats(ref)
        assert got.tobytes() == mean.tobytes()
    assert series.factorial_stderr.tobytes() == _replica_stats(fact)[1].tobytes()
    assert series.raw_stderr.tobytes() == _replica_stats(raw)[1].tobytes()

    volume = h ** dimension
    for k, grid in enumerate(density_estimate(ens, part)):
        mean, err = _replica_stats(fact[:, k, :, 0] / volume)
        assert grid.values.tobytes() == mean.tobytes()
        assert grid.stderr.tobytes() == err.tobytes()
    # the per-configuration counts share the cell indexing
    for r in range(replicas):
        for k in range(n_times):
            assert part.counts(ens.positions(r, k)).tolist() == \
                fact[r, k, :, 0].astype(int).tolist()


@pytest.mark.parametrize("block", [1, 97, estimators._PAIR_BLOCK, 1 << 16])
@pytest.mark.parametrize("sides,cell_side", [([2.0], 0.25), ([2.0], 2.0),
                                             ([1.0, 1.0], 0.5)],
                         ids=["1d-8-cells", "1d-one-cell", "2d-4-cells"])
@pytest.mark.parametrize("orders", [1, 4])
def test_blocked_cell_estimators_match_per_cell_reference(
        block, sides, cell_side, orders, monkeypatch):
    # 12 replicas: numpy sums 8 or more values pairwise when a reduction
    # keeps one value, so a one-column block would round differently from
    # the whole tensor
    monkeypatch.setattr(estimators, "_PAIR_BLOCK", block)
    gen = np.random.default_rng(23)
    win = Window(sides)
    part = CellPartition(win, cell_side)
    d = win.dimension
    configs = [[gen.uniform(0.0, sides[0], size=(gen.poisson(9), d))
                for _ in range(3)] for _ in range(12)]
    ens = SnapshotEnsemble(win, [0.0, 1.0, 2.0], configs)
    series = moment_series(ens, part, l_max=orders, n_max=orders)
    fact, raw = per_cell_reference(ens, part, orders, orders)
    for got, got_err, ref in ((series.factorial, series.factorial_stderr, fact),
                              (series.raw, series.raw_stderr, raw)):
        mean, err = _replica_stats(ref)
        assert got.tobytes() == mean.tobytes()
        assert got_err.tobytes() == err.tobytes()
    volume = cell_side ** d
    for k, grid in enumerate(density_estimate(ens, part)):
        mean, err = _replica_stats(fact[:, k, :, 0] / volume)
        assert grid.values.tobytes() == mean.tobytes()
        assert grid.stderr.tobytes() == err.tobytes()


def test_moment_series_memory_stays_bounded():
    # 450 replicas x 4 snapshots x 100 cells x 4 orders: one float tensor of
    # factorial moments is 5.8 MB, and the whole-tensor reduction peaked at
    # 12.5 MB; the count tensor itself is 1.4 MB
    gen = np.random.default_rng(29)
    win = Window([10.0])
    ens = SnapshotEnsemble(win, [0.0, 1.0, 2.0, 4.0],
                           [[gen.uniform(0.0, 10.0, size=(gen.poisson(13), 1))
                             for _ in range(4)] for _ in range(450)])
    part = CellPartition(win, 0.1)
    tracemalloc.start()
    try:
        series = moment_series(ens, part, l_max=4, n_max=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert series.factorial.shape == (4, 100, 4)
    assert np.all(series.factorial[:, :, 0] > 0.0)


# -------------------------------------------------------------------- CSV

def test_replica_stats_single_sample():
    mean, err = _replica_stats(np.array([[3.0, 1.0]]))
    assert mean.tolist() == [3.0, 1.0]
    assert err.tolist() == [0.0, 0.0]


def test_write_csv_formats_columns_block_by_block(tmp_path):
    path = tmp_path / "blocks.csv"
    write_csv(path, ["t", "id", "tag", "value"],
              [[np.full(2, 0.5), np.arange(2), ["a", "b"], [0.1, 1 / 3]],
               [[], [], [], []],
               [np.array([1.0]), [7], np.array(["c"]), np.array([2.0])]])
    # floats by repr, anything else by str, blocks in the order given
    assert path.read_text() == ("t,id,tag,value\n"
                                "0.5,0,a,0.1\n"
                                "0.5,1,b,0.3333333333333333\n"
                                "1.0,7,c,2.0\n")


def test_csv_round_trip_and_determinism(tmp_path):
    ens = fixed_ensemble([[[0.5, 0.7, 2.5]], [[1.1]]], L=4.0)
    part = CellPartition(ens.window, 1.0)
    grids = density_estimate(ens, part)
    series = moment_series(ens, part, l_max=2, n_max=2)

    k1a, k1b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_k1_csv(k1a, grids, ens.times, dimension=1)
    write_k1_csv(k1b, grids, ens.times, dimension=1)
    assert k1a.read_bytes() == k1b.read_bytes()

    cols = read_csv_columns(k1a)
    assert list(cols) == ["t", "x1", "value", "stderr"]
    assert [float(v) for v in cols["value"]] == grids[0].values.tolist()
    # repr round trip: parsing gives back the exact float
    assert all(repr(float(v)) == v for v in cols["value"])

    mp = tmp_path / "moments.csv"
    write_moments_csv(mp, series)
    mcols = read_csv_columns(mp)
    assert list(mcols) == ["t", "cell_id", "l_or_n", "kind", "value", "stderr"]
    assert set(mcols["kind"]) == {"factorial", "raw"}
    # one factorial and one raw row per cell and order
    assert len(mcols["t"]) == len(part) * (2 + 2)

    pair = pair_correlation_estimate(ens, [0.0, 1.0, 2.0])
    kp = tmp_path / "k2.csv"
    write_k2_csv(kp, [pair], [ens.times[-1]])
    kcols = read_csv_columns(kp)
    assert list(kcols) == ["t", "r", "value", "stderr"]
    assert len(kcols["r"]) == 2
