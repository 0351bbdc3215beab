"""Empirical estimators over replica ensembles of particle snapshots.

An ensemble is one particle table, rows ordered by replica and snapshot.
Every cell estimator reads one integer tensor counts[r, k, c], the number of
core particles of replica r at snapshot k in cell c, built in one vectorised
pass over that table (`_cell_counts`).  Factorial moments binom(N, l)
and raw moments N^n are looked up in tables indexed by count, whose rows come
from exact integers (`math.comb`, and the Stirling transform
N^n = sum_l l! S(n, l) binom(N, l) in `raw_moment_from_factorials`), so the
factorial path stays the primary one and every sample equals the float of an
exact integer.  `counts_in` counts a box the same way, with one `bincount`
over the replica-snapshot slots.  Densities and pair correlations are simple
bin estimators with replica-level standard errors.

`moment_series` and `density_estimate` reduce over the replicas in column
blocks of the flattened (snapshot x cell) count matrix, so besides the
integer counts they hold about _COLUMN_BLOCK floats at a time, never a
replicas x snapshots x cells x orders tensor; numpy adds the replicas of
each element in order whatever the block.  `pair_correlation_estimate`
counts the pairs of all replicas of a snapshot in compiled code
(`cp_pairs` in `_events.c`), with numpy's floats and no per-pair array:
the rows are cut into up to `threads` ranges of about equal pair counts,
each counted in its own thread into its own integer histograms, so the sum
does not depend on the number of ranges.

`write_csv` is the package's one CSV writer: every CSV of every command
goes through it, as blocks of columns with floats written by repr; `verify`
writes k1.csv and moments.csv again with the same writers.
"""

from __future__ import annotations

import csv
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import Box, Window

__all__ = [
    "SnapshotEnsemble",
    "CellPartition",
    "CorrelationGrid",
    "MomentSeries",
    "stirling",
    "raw_moment_from_factorials",
    "density_estimate",
    "mean_density",
    "separation_edges",
    "pair_correlation_estimate",
    "check_moment_orders",
    "moment_series",
    "write_csv",
    "write_k1_csv",
    "write_k2_csv",
    "write_moments_csv",
    "read_csv_columns",
]

MAX_MOMENT_ORDER = 8
# the budget of one column block of the reductions over the replicas in
# `moment_series` and `density_estimate`: looked-up floats per block
_COLUMN_BLOCK = 1 << 14


class SnapshotEnsemble:
    """Replica-resolved snapshots as one particle table: the (N, d) `points`
    sorted by the slot r * n_times + k of replica r at snapshot k, and
    counts[r, k], the rows in that slot."""

    def __init__(self, window: Window, times, points, counts):
        self.window = window
        self.times = np.asarray(times, dtype=float)
        self.points = np.asarray(points, dtype=float).reshape(
            -1, window.dimension)
        self.counts = np.asarray(counts, dtype=np.intp)
        if self.counts.shape[1:] != self.times.shape or np.any(
                self.counts < 0) or self.counts.sum() != len(self.points):
            raise ValueError("counts must be (replicas, times) row counts "
                             "adding up to the rows of points")
        self._slot = np.repeat(np.arange(self.counts.size),
                               self.counts.ravel())
        self._stop = np.cumsum(self.counts).reshape(self.counts.shape)

    @property
    def n_replicas(self) -> int:
        return self.counts.shape[0]

    @property
    def n_times(self) -> int:
        return self.times.size

    def positions(self, replica: int, time_index: int) -> np.ndarray:
        """The rows of one replica at one snapshot, a view of `points`."""
        stop = self._stop[replica, time_index]
        return self.points[stop - self.counts[replica, time_index]:stop]

    def snapshot(self, time_index: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows of every replica at one snapshot, in replica order, and
        the replica of each row."""
        rows = self._slot % self.n_times == range(self.n_times)[time_index]
        return self.points[rows], self._slot[rows] // self.n_times

    def counts_in(self, box: Box) -> np.ndarray:
        """(replicas, times) matrix of particle counts inside `box`."""
        inside = box.contains_points(self.points)
        return np.bincount(self._slot[inside], minlength=self.counts.size
                           ).reshape(self.counts.shape)


class CellPartition:
    """Congruent cells of side `cell_side` tiling the observation core.

    A cell is known by its flat C-order index into `shape`; `centers[c]` is
    the center of cell c, and iterating yields each cell's Box in the same
    order, built only when reached.
    """

    def __init__(self, window: Window, cell_side: float):
        if not 0.0 < cell_side < math.inf:
            raise ValueError("cell side must be positive and finite")
        counts = np.round(window.sides / cell_side).astype(int)
        if np.any(counts < 1) or np.any(
                np.abs(counts * cell_side - window.sides) > 1e-9 * window.sides):
            raise ValueError(f"cell side {cell_side:g} does not tile the window")
        self.window = window
        self.cell_side = float(cell_side)
        self.shape = tuple(int(c) for c in counts)
        self.volume = self.cell_side ** window.dimension
        # each cell Box's midpoint 0.5 * (lo + hi), computed in place
        lo = self._lower_corners()
        self.centers = lo + self.cell_side
        self.centers += lo
        self.centers *= 0.5

    def _lower_corners(self) -> np.ndarray:
        """(cells, d) lower corners, index times cell side, in C order."""
        index = np.indices(self.shape, dtype=float)
        return np.multiply(index.reshape(len(self.shape), -1).T,
                           self.cell_side, order="C")

    def __len__(self) -> int:
        return math.prod(self.shape)

    def __iter__(self):
        for lo in self._lower_corners():
            yield Box(lo, lo + self.cell_side)


def _cell_index(partition: CellPartition,
                positions) -> tuple[np.ndarray, np.ndarray]:
    """Flat C-order cell of each core particle, and the core mask over all
    rows.  A core point just below an upper face whose quotient rounds up
    to the cell count is clipped into the last cell."""
    d = partition.window.dimension
    pos = np.asarray(positions, dtype=float).reshape(-1, d)
    inside = partition.window.core.contains_points(pos)
    idx = np.floor(pos[inside] / partition.cell_side).astype(int)
    idx = np.clip(idx, 0, np.asarray(partition.shape) - 1)
    return np.ravel_multi_index(tuple(idx.T), partition.shape), inside


def _cell_counts(ensemble: SnapshotEnsemble,
                 partition: CellPartition) -> np.ndarray:
    """(replicas, times, cells) integer tensor of core particle counts."""
    shape = (ensemble.n_replicas, ensemble.n_times, len(partition))
    flat, inside = _cell_index(partition, ensemble.points)
    key = ensemble._slot[inside] * len(partition) + flat
    return np.bincount(key, minlength=math.prod(shape)).reshape(shape)


@dataclass
class CorrelationGrid:
    """Binned estimate: bin centers, values, and replica-level stderr."""

    centers: np.ndarray
    values: np.ndarray
    stderr: np.ndarray


@dataclass
class MomentSeries:
    """Cell-count moments per snapshot time.

    factorial[k, c, l-1] estimates the l-th factorial moment of the count in
    cell c at times[k]; raw[k, c, n-1] the n-th raw moment, derived per
    replica from its exact factorials.  Order zero is identically 1 and not
    stored.
    """

    times: np.ndarray
    orders: int
    raw_orders: int
    factorial: np.ndarray
    factorial_stderr: np.ndarray
    raw: np.ndarray
    raw_stderr: np.ndarray


def _stirling_rows(n_max: int) -> list[list[int]]:
    """Rows 0..n_max of the triangle, by S(n, l) = l S(n-1, l) + S(n-1, l-1)
    with S(0, 0) = 1 and S(n, 0) = 0 for n >= 1."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [l * prev[l] + prev[l - 1] for l in range(1, n + 1)])
    return rows


# the Stirling triangle for n <= 64, exact integers
_STIRLING = _stirling_rows(64)


def stirling(n: int, l: int) -> int:
    """S(n, l), the Stirling number of the second kind, for 0 <= n <= 64;
    zero when l > n."""
    if l < 0 or not 0 <= n < len(_STIRLING):
        raise ValueError(f"S({n}, {l}) is outside the table's "
                         f"0 <= l, 0 <= n <= {len(_STIRLING) - 1}")
    return _STIRLING[n][l] if l <= n else 0


def raw_moment_from_factorials(factorials, n: int):
    """N^n from factorial moments: sum_l l! S(n, l) F_l; exact on integers."""
    if n == 0:
        return 1
    factorials = list(factorials)
    if len(factorials) < n:
        raise ValueError(f"need factorial moments up to order {n}")
    total = 0
    for l in range(1, n + 1):
        total += math.factorial(l) * stirling(n, l) * factorials[l - 1]
    return total


def _replica_stats(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error across the replica axis (axis 0)."""
    mean = samples.mean(axis=0)
    n = samples.shape[0]
    if n < 2:
        return mean, np.zeros_like(mean)
    return mean, samples.std(axis=0, ddof=1) / math.sqrt(n)


def _column_stats(counts: np.ndarray,
                  table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_replica_stats` of table[counts], for a (replicas, columns) count
    matrix, in column blocks of about _COLUMN_BLOCK looked-up values.  A block
    keeps at least two columns: numpy sums a reduction to a single value
    pairwise, not in replica order, so one column alone could round
    differently."""
    replicas, columns = counts.shape
    width = max(_COLUMN_BLOCK // max(replicas * table.shape[1], 1), 2)
    blocks = max(columns // width, 1)
    mean = np.empty((columns, table.shape[1]))
    err = np.empty_like(mean)
    for b in range(blocks):
        cols = slice(b * columns // blocks, (b + 1) * columns // blocks)
        mean[cols], err[cols] = _replica_stats(table[counts[:, cols]])
    return mean, err


def mean_density(ensemble: SnapshotEnsemble) -> CorrelationGrid:
    """Core density per snapshot: centers are times here."""
    counts = ensemble.counts_in(ensemble.window.core).astype(float)
    value, err = _replica_stats(counts / ensemble.window.volume)
    return CorrelationGrid(centers=ensemble.times.copy(), values=value,
                           stderr=err)


def density_estimate(ensemble: SnapshotEnsemble,
                     partition: CellPartition) -> list[CorrelationGrid]:
    """Per-cell density estimate, one grid per snapshot time."""
    counts = _cell_counts(ensemble, partition)
    table = np.arange(counts.max(initial=0) + 1,
                      dtype=float)[:, None] / partition.volume
    out = []
    # snapshot by snapshot: over a single cell, numpy sums the replicas
    # pairwise, so the snapshots are not merged into one reduction
    for k in range(ensemble.n_times):
        value, err = _column_stats(counts[:, k, :], table)
        out.append(CorrelationGrid(centers=partition.centers,
                                   values=value.ravel(),
                                   stderr=err.ravel()))
    return out


def _shell_volumes(edges: np.ndarray, dimension: int) -> np.ndarray:
    if dimension == 1:
        return 2.0 * np.diff(edges)
    if dimension == 2:
        return math.pi * np.diff(edges**2)
    if dimension == 3:
        return 4.0 / 3.0 * math.pi * np.diff(edges**3)
    unit_ball = math.pi**(dimension / 2) / math.gamma(dimension / 2 + 1)
    return unit_ball * np.diff(edges**dimension)


def _pair_histograms(window: Window, pos: np.ndarray, replica: np.ndarray,
                     n_replicas: int, r_edges: np.ndarray,
                     threads: int = 1) -> np.ndarray:
    """(n_replicas, bins) histograms of |displacement(pos[i], pos[j])| over
    the pairs i < j of each replica; pos holds the replicas one after
    another, replica[i] being that of row i.

    The pairs are counted by `cp_pairs` in `_events.c`, which makes numpy's
    floats: the minimum image of y - x (`Window.minimum_image`), squares
    added in axis order, sqrt.  Separation r falls in key k where
    lower[k] <= r < lower[k + 1], with lower = [-inf, edges with the last
    one ulp up, nan], so the last bin is closed as in np.histogram and keys
    0 and bins + 1 hold the separations outside.  With W = min(threads,
    os.cpu_count(), rows), the rows are cut into W ranges of about equal
    pair counts, each counted into its own histograms by one call in its
    own thread; the call releases the GIL, so the ranges run at once.  The
    counts are integers, so their sum does not depend on W.
    """
    from .simulator import _library   # simulator imports this module
    n, d = pos.shape
    bins = r_edges.size - 1
    lower = np.concatenate(([-np.inf], r_edges, [np.nan]))
    lower[-2] = np.nextafter(lower[-2], np.inf)
    with np.errstate(over="ignore"):   # inf: cp_pairs clamps the guess
        scale = bins / (r_edges[-1] - r_edges[0])
    pos = np.ascontiguousarray(pos, dtype=float)
    replica = np.ascontiguousarray(replica, dtype=np.int64)
    if n and (replica[0] < 0 or replica[-1] >= n_replicas
              or np.any(np.diff(replica) < 0)):   # cp_pairs indexes by it
        raise ValueError("rows must come in replica order, below n_replicas")
    ends = np.cumsum(np.bincount(replica, minlength=n_replicas))
    before = np.zeros(n + 1, dtype=np.int64)   # pairs of the rows before i
    np.cumsum(ends[replica] - np.arange(n) - 1, out=before[1:])
    workers = max(min(threads, os.cpu_count() or 1, n), 1)
    cuts = np.searchsorted(before, before[-1] * np.arange(workers + 1)
                           // workers)   # the last cut passes every pair
    # each range's histograms, then 16 counts (128 bytes) that stay 0, so
    # that no two threads write to one cache line
    size = n_replicas * (bins + 2)
    hist = np.zeros((workers, size + 16), dtype=np.int64)
    lib = _library()

    def count(k: int) -> None:
        lib.cp_pairs(pos, d, window.boundary == "periodic", window.sides,
                     replica, ends, cuts[k], cuts[k + 1], lower, bins, scale,
                     hist[k])

    ranges = [threading.Thread(target=count, args=(k,))
              for k in range(1, workers)]
    for thread in ranges:
        thread.start()
    count(0)
    for thread in ranges:
        thread.join()
    return hist[:, :size].sum(axis=0).reshape(n_replicas, bins + 2)[:, 1:-1]


def separation_edges(window: Window, r_edges) -> np.ndarray:
    """r_edges as a float array, checked to increase over at least two
    entries and, on a torus, to stay within half the smallest side."""
    r_edges = np.asarray(r_edges, dtype=float)
    if r_edges.ndim != 1 or r_edges.size < 2 or np.any(np.diff(r_edges) <= 0):
        raise ValueError("r_edges must be increasing with at least two entries")
    if window.boundary == "periodic":
        half = float(np.min(window.sides)) / 2.0
        if r_edges[-1] > half + 1e-12:
            raise ValueError(f"separation bins reach {r_edges[-1]:g}, beyond "
                             f"half the smallest side {half:g}")
    return r_edges


def pair_correlation_estimate(ensemble: SnapshotEnsemble, r_edges,
                              time_index: int = -1,
                              threads: int = 1) -> CorrelationGrid:
    """Radial second correlation at one snapshot time.

    Ordered pairs with minimum-image separation in [r, r+dr) are counted per
    replica and divided by V * shell volume, an unbiased estimator of
    k^(2)(r) on the torus; mean and stderr are taken across replicas.  The
    pairs of every replica are counted in one pass (`_pair_histograms`),
    split over up to `threads` threads; the result does not depend on it.
    """
    if threads < 1:
        raise ValueError("threads must be positive")
    window = ensemble.window
    r_edges = separation_edges(window, r_edges)
    shells = _shell_volumes(r_edges, window.dimension)
    pos, replica = ensemble.snapshot(time_index)
    if window.boundary != "periodic":
        core = window.core.contains_points(pos)
        pos, replica = pos[core], replica[core]
    hist = _pair_histograms(window, pos, replica, ensemble.n_replicas, r_edges,
                            threads)
    per_replica = 2.0 * hist / (window.volume * shells)   # ordered pairs
    centers = 0.5 * (r_edges[:-1] + r_edges[1:])
    value, err = _replica_stats(per_replica)
    return CorrelationGrid(centers=centers, values=value, stderr=err)


def check_moment_orders(l_max: int, n_max: int) -> None:
    """Raise ValueError unless 1 <= n_max <= l_max <= MAX_MOMENT_ORDER."""
    if not 1 <= l_max <= MAX_MOMENT_ORDER or not 1 <= n_max <= MAX_MOMENT_ORDER:
        raise ValueError(f"moment orders limited to 1..{MAX_MOMENT_ORDER}")
    if n_max > l_max:
        raise ValueError("raw order n_max needs factorials up to the same order")


def moment_series(ensemble: SnapshotEnsemble, partition: CellPartition,
                  l_max: int = 4, n_max: int = 4) -> MomentSeries:
    """Factorial moments per cell and the raw moments derived from them."""
    check_moment_orders(l_max, n_max)
    counts = _cell_counts(ensemble, partition)
    # tables indexed by count, filled only on the rows of counts that occur
    present = np.bincount(counts.ravel(), minlength=1)
    fact_table = np.zeros((present.size, l_max))
    raw_table = np.zeros((present.size, n_max))
    for n in np.flatnonzero(present).tolist():
        facts = [math.comb(n, l) for l in range(1, l_max + 1)]
        fact_table[n] = [float(f) for f in facts]
        raw_table[n] = [float(raw_moment_from_factorials(facts, m))
                        for m in range(1, n_max + 1)]
    replicas, shape = counts.shape[0], counts.shape[1:]
    columns = counts.reshape(replicas, math.prod(shape))
    f_mean, f_err = (a.reshape(shape + (l_max,))
                     for a in _column_stats(columns, fact_table))
    r_mean, r_err = (a.reshape(shape + (n_max,))
                     for a in _column_stats(columns, raw_table))
    return MomentSeries(times=ensemble.times.copy(), orders=l_max,
                        raw_orders=n_max, factorial=f_mean,
                        factorial_stderr=f_err, raw=r_mean, raw_stderr=r_err)


# -- CSV serialization -------------------------------------------------------


def write_csv(path, header, blocks) -> None:
    """Write a CSV with one header row from blocks of equal-length columns.

    A float column is written as repr of each value (the shortest round-trip
    form, so identical estimates serialize to identical bytes), any other
    column as str.  Each block is formatted and written before the next is
    drawn, so a caller that yields small blocks keeps the text of one block
    in memory, never the whole file.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            text = [map(repr if col.dtype.kind == "f" else str, col.tolist())
                    for col in map(np.asarray, block)]
            fh.write("".join(",".join(row) + "\n" for row in zip(*text)))


def write_k1_csv(path, grids, times, dimension: int) -> None:
    """k1.csv: t, cell center, value, stderr; a block per time."""
    write_csv(path, ["t", *(f"x{i + 1}" for i in range(dimension)), "value",
                     "stderr"],
              ([np.full(g.values.size, t, dtype=float),
                *g.centers.reshape(g.values.size, -1).T, g.values, g.stderr]
               for t, g in zip(times, grids)))


def write_k2_csv(path, grids: list[CorrelationGrid], times) -> None:
    """k2.csv: t, r, value, stderr; a block per time."""
    write_csv(path, ["t", "r", "value", "stderr"],
              ([np.full(g.values.size, t, dtype=float), g.centers, g.values,
                g.stderr] for t, g in zip(times, grids)))


def write_moments_csv(path, series: MomentSeries) -> None:
    """moments.csv: t, cell_id, l_or_n, kind, value, stderr; a block per
    time, each cell's factorial orders before its raw ones."""
    cells = series.factorial.shape[1]
    orders = np.r_[1:series.orders + 1, 1:series.raw_orders + 1]
    kinds = ["factorial"] * series.orders + ["raw"] * series.raw_orders
    rows = cells * orders.size
    write_csv(path, ["t", "cell_id", "l_or_n", "kind", "value", "stderr"],
              ([np.full(rows, t, dtype=float),
                np.repeat(np.arange(cells), orders.size),
                np.tile(orders, cells), np.tile(kinds, cells),
                np.hstack([series.factorial[k], series.raw[k]]).ravel(),
                np.hstack([series.factorial_stderr[k],
                           series.raw_stderr[k]]).ravel()]
               for k, t in enumerate(series.times)))


def read_csv_columns(path) -> dict[str, list[str]]:
    """Read a CSV into raw string columns keyed by header; an empty file
    has no columns."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        cols: dict[str, list[str]] = {name: [] for name in header}
        for row in reader:
            for name, value in zip(header, row):
                cols[name].append(value)
    return cols
