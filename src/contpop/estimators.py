"""Empirical estimators over replica ensembles of particle snapshots.

Every cell estimator reads one integer tensor counts[r, k, c], the number of
core particles of replica r at snapshot k in cell c, built in one vectorised
pass over the whole ensemble (`_cell_counts`).  Factorial moments binom(N, l)
and raw moments N^n are looked up in tables indexed by count, whose rows come
from the exact integer functions (`binomial`, and the Stirling transform
N^n = sum_l l! S(n, l) binom(N, l) in `raw_moment_from_factorials`), so the
factorial path stays the primary one and every sample equals the float of an
exact integer.  `counts_in` counts a box the same way, with one `bincount`
over the replica-snapshot slots.  Densities and pair correlations are simple
bin estimators with replica-level standard errors.

The estimators work in blocks bounded by one budget, _PAIR_BLOCK elements.
`moment_series` and `density_estimate` reduce over the replicas in column
blocks of the flattened (snapshot x cell) count matrix, so besides the
integer counts they hold about _PAIR_BLOCK floats at a time, never a
replicas x snapshots x cells x orders tensor.  `pair_correlation_estimate`
counts the pairs of all replicas of a snapshot in one pass over blocks of
about _PAIR_BLOCK pairs, never an n x n array.  The blocks change no
result: pair counts are integers, and numpy adds the replicas of each
element in order whatever the block.

`write_csv` is the package's one CSV writer: every CSV of every command
goes through it, as blocks of columns with floats written by repr.
`k1_table` and `moments_table` are the one place the k1.csv and moments.csv
layouts are spelled out; `verify` compares the stored files with them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .combinatorics import binomial, stirling
from .model import Box, Window

__all__ = [
    "SnapshotEnsemble",
    "CellPartition",
    "CorrelationGrid",
    "MomentSeries",
    "factorial_moment",
    "raw_moment_from_factorials",
    "density_estimate",
    "mean_density",
    "separation_edges",
    "pair_correlation_estimate",
    "check_moment_orders",
    "moment_series",
    "write_csv",
    "k1_table",
    "write_k1_csv",
    "write_k2_csv",
    "moments_table",
    "write_moments_csv",
    "read_csv_columns",
]

MAX_MOMENT_ORDER = 8
# the one block budget: pairs per block of the pair histogram, and looked-up
# floats per column block of the cell-moment and density reductions
_PAIR_BLOCK = 1 << 14


class SnapshotEnsemble:
    """Replica-resolved snapshots: configurations[r][k] is an (n, d) array."""

    def __init__(self, window: Window, times, configurations):
        self.window = window
        self.times = np.asarray(times, dtype=float)
        self.configurations = configurations
        if any(len(reps) != self.times.size for reps in configurations):
            raise ValueError("every replica needs one configuration per time")

    @property
    def n_replicas(self) -> int:
        return len(self.configurations)

    @property
    def n_times(self) -> int:
        return self.times.size

    def positions(self, replica: int, time_index: int) -> np.ndarray:
        return self.configurations[replica][time_index]

    def counts_in(self, box: Box) -> np.ndarray:
        """(replicas, times) matrix of particle counts inside `box`."""
        points, slot = _stacked(self)
        shape = (self.n_replicas, self.n_times)
        inside = box.contains_points(points)
        return np.bincount(slot[inside],
                           minlength=math.prod(shape)).reshape(shape)


class CellPartition:
    """Congruent cells of side `cell_side` tiling the observation core."""

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
        self.cells = []
        for flat in range(int(np.prod(counts))):
            idx = np.unravel_index(flat, self.shape)
            lo = np.asarray(idx, dtype=float) * cell_side
            self.cells.append(Box(lo, lo + cell_side))

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def separation_box(self) -> Box:
        """Box of pairwise separations within one cell: [-h, h]^d."""
        h = self.cell_side
        d = self.window.dimension
        return Box(-h * np.ones(d), h * np.ones(d))

    def counts(self, positions: np.ndarray) -> np.ndarray:
        """Particle count per cell (C-order); buffer particles are ignored."""
        flat, _ = _cell_index(self, positions)
        return np.bincount(flat, minlength=len(self.cells))


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


def _stack(configs, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """The position arrays of `configs` as one (N, d) array, and the index
    in `configs` of each row."""
    configs = [np.asarray(pos, dtype=float).reshape(-1, dimension)
               for pos in configs]
    if not configs:
        return np.empty((0, dimension)), np.empty(0, dtype=np.intp)
    slot = np.repeat(np.arange(len(configs)), [p.shape[0] for p in configs])
    return np.concatenate(configs), slot


def _stacked(ensemble: SnapshotEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Every particle of the ensemble as one (N, d) array, and the
    replica-snapshot slot r * n_times + k of each."""
    return _stack([pos for reps in ensemble.configurations for pos in reps],
                  ensemble.window.dimension)


def _cell_counts(ensemble: SnapshotEnsemble,
                 partition: CellPartition) -> np.ndarray:
    """(replicas, times, cells) integer tensor of core particle counts."""
    shape = (ensemble.n_replicas, ensemble.n_times, len(partition))
    points, slot = _stacked(ensemble)
    flat, inside = _cell_index(partition, points)
    key = slot[inside] * len(partition) + flat
    return np.bincount(key, minlength=math.prod(shape)).reshape(shape)


@dataclass
class CorrelationGrid:
    """Binned estimate: bin centers, values, and replica-level stderr."""

    centers: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    order: int = 1


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
    cell_side: float = field(default=0.0)


def factorial_moment(positions, box: Box, l: int) -> int:
    """binom(N_box, l), exact."""
    if l < 0:
        raise ValueError("order must be nonnegative")
    pos = np.asarray(positions, dtype=float)
    n = 0
    if pos.size:
        n = int(np.count_nonzero(box.contains_points(pos)))
    return binomial(n, l)


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
    matrix, in column blocks of about _PAIR_BLOCK looked-up values.  A block
    keeps at least two columns: numpy sums a reduction to a single value
    pairwise, not in replica order, so one column alone could round
    differently."""
    replicas, columns = counts.shape
    width = max(_PAIR_BLOCK // max(replicas * table.shape[1], 1), 2)
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
                           stderr=err, order=1)


def density_estimate(ensemble: SnapshotEnsemble,
                     partition: CellPartition) -> list[CorrelationGrid]:
    """Per-cell density estimate, one grid per snapshot time."""
    volume = partition.cell_side ** ensemble.window.dimension
    centers = np.asarray([0.5 * (c.lo + c.hi) for c in partition])
    counts = _cell_counts(ensemble, partition)
    table = np.arange(counts.max(initial=0) + 1, dtype=float)[:, None] / volume
    out = []
    # snapshot by snapshot: over a single cell, numpy sums the replicas
    # pairwise, so the snapshots are not merged into one reduction
    for k in range(ensemble.n_times):
        value, err = _column_stats(counts[:, k, :], table)
        out.append(CorrelationGrid(centers=centers, values=value.ravel(),
                                   stderr=err.ravel()))
    return out


def _shell_volumes(edges: np.ndarray, dimension: int) -> np.ndarray:
    if dimension == 1:
        return 2.0 * np.diff(edges)
    if dimension == 2:
        return math.pi * np.diff(edges**2)
    return 4.0 / 3.0 * math.pi * np.diff(edges**3)


def _pair_blocks(partners: np.ndarray):
    """Blocks (start, stop, lo, hi) of at most _PAIR_BLOCK pairs: rows
    [start, stop) against their partner columns [lo, hi).  A run of rows
    whose widest row times their number fits the budget is one block, its
    narrower rows padded to the widest; a row wider than the budget is cut
    into pieces of _PAIR_BLOCK columns.  Blocks without pairs are skipped."""
    start = 0
    while start < partners.size:
        head = int(partners[start])
        if head > _PAIR_BLOCK:
            for lo in range(0, head, _PAIR_BLOCK):
                yield start, start + 1, lo, min(lo + _PAIR_BLOCK, head)
            start += 1
            continue
        widest = np.maximum.accumulate(
            partners[start:start + _PAIR_BLOCK // max(head, 1)])
        rows = int(np.count_nonzero(
            widest * np.arange(1, widest.size + 1) <= _PAIR_BLOCK))
        if widest[rows - 1]:
            yield start, start + rows, 0, int(widest[rows - 1])
        start += rows


def _pair_histograms(window: Window, pos: np.ndarray, replica: np.ndarray,
                     n_replicas: int, r_edges: np.ndarray) -> np.ndarray:
    """(n_replicas, bins) histograms of |displacement(pos[i], pos[j])| over
    the pairs i < j of each replica; pos holds the replicas one after
    another, replica[i] being that of row i.

    Row i pairs with the partners[i] rows after it, read from a sliding
    window over the coordinates, stored axis by axis, in the blocks of
    `_pair_blocks`.  Each block makes two passes over its rows, in buffers
    allocated once per call.  The first writes the separations as
    `Window.distance` computes them: the minimum image of y - x, squares
    added in axis order, sqrt; a block's padding columns are set to inf.
    The second bins them: the key k of separation r satisfies
    lower[k] <= r < lower[k + 1], with lower = [-inf, edges with the last
    one ulp up, nan], so the last bin is closed as in np.histogram and keys
    0 and bins + 1 hold the separations outside.  The key is guessed from
    the edges' mean spacing, exact or one off on equally spaced edges, and
    moved one bin at a time until no separation moves, which makes it exact
    for any increasing edges.  One bincount per block takes the keys
    replica * (bins + 2) + k.
    """
    n, d = pos.shape
    bins = r_edges.size - 1
    lower = np.concatenate(([-np.inf], r_edges, [np.nan]))
    lower[-2] = np.nextafter(lower[-2], np.inf)
    above = lower[1:]   # above[k] = lower[k + 1]
    with np.errstate(over="ignore"):   # inf: see the fmax, fmin below
        scale = bins / (r_edges[-1] - r_edges[0])
    ends = np.cumsum(np.bincount(replica, minlength=n_replicas))
    partners = ends[replica] - np.arange(n) - 1
    offset = replica * (bins + 2)
    width = max(int(partners.max(initial=0)), 1)
    coords = np.zeros((d, n + width))   # zero padding, always masked
    coords[:, :n] = pos.T
    columns = sliding_window_view(coords, width, axis=1)  # coords[:, i:i+width]
    size = min(_PAIR_BLOCK, n * width)
    buffers = (np.empty(size), np.empty(size), np.empty(size),
               np.empty(size, dtype=np.intp), np.empty(size, dtype=bool))
    hist = np.zeros((n_replicas, bins + 2), dtype=np.int64)
    for start, stop, lo, hi in _pair_blocks(partners):
        shape = (stop - start, hi - lo)
        sep, u, t, key, flag = (b[:shape[0] * shape[1]].reshape(shape)
                                for b in buffers)
        for axis in range(d):
            np.subtract(columns[axis, start + 1:stop + 1, lo:hi],
                        coords[axis, start:stop, None], out=u)
            fold = window.minimum_image(u, axis, out=t)
            if axis:
                sep += np.multiply(fold, fold, out=t)
            else:
                np.multiply(fold, fold, out=sep)
        np.sqrt(sep, out=sep)
        if shape[0] > 1:   # the columns past each row's partners
            np.greater_equal(np.arange(lo, hi), partners[start:stop, None],
                             out=flag)
            np.copyto(sep, np.inf, where=flag)
        np.subtract(sep, r_edges[0], out=t)
        t *= scale
        # fmax, fmin: a nan guess (0 * inf, where bins / span overflows)
        # becomes key 0 and is moved up like any other
        np.fmax(t, -1.0, out=t)
        np.fmin(t, bins, out=t)
        t += 1.0
        np.copyto(key, t, casting="unsafe")
        while True:
            lower.take(key, out=t, mode="clip")
            down = np.less(sep, t, out=flag).any()
            if down:
                key -= flag
            above.take(key, out=t, mode="clip")
            up = np.greater_equal(sep, t, out=flag).any()
            if up:
                key += flag
            if not (down or up):
                break
        key += offset[start:stop, None]
        hist += np.bincount(key.ravel(),
                            minlength=hist.size).reshape(hist.shape)
    return hist[:, 1:-1]


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
                              time_index: int = -1) -> CorrelationGrid:
    """Radial second correlation at one snapshot time.

    Ordered pairs with minimum-image separation in [r, r+dr) are counted per
    replica and divided by V * shell volume, an unbiased estimator of
    k^(2)(r) on the torus; mean and stderr are taken across replicas.  The
    pairs of every replica are counted in one pass (`_pair_histograms`).
    """
    window = ensemble.window
    r_edges = separation_edges(window, r_edges)
    shells = _shell_volumes(r_edges, window.dimension)
    pos, replica = _stack([ensemble.positions(r, time_index)
                           for r in range(ensemble.n_replicas)],
                          window.dimension)
    if window.boundary != "periodic":
        core = window.core.contains_points(pos)
        pos, replica = pos[core], replica[core]
    hist = _pair_histograms(window, pos, replica, ensemble.n_replicas, r_edges)
    per_replica = 2.0 * hist / (window.volume * shells)   # ordered pairs
    centers = 0.5 * (r_edges[:-1] + r_edges[1:])
    value, err = _replica_stats(per_replica)
    return CorrelationGrid(centers=centers, values=value, stderr=err, order=2)


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
        facts = [binomial(n, l) for l in range(1, l_max + 1)]
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
                        factorial_stderr=f_err, raw=r_mean, raw_stderr=r_err,
                        cell_side=partition.cell_side)


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


def k1_table(grids: list[CorrelationGrid], times, dimension: int) -> tuple:
    """k1.csv as (header, blocks): t, cell center, value, stderr by time."""
    return (["t", *(f"x{i + 1}" for i in range(dimension)), "value", "stderr"],
            ([np.full(g.values.size, t, dtype=float),
              *g.centers.reshape(g.values.size, -1).T, g.values, g.stderr]
             for t, g in zip(times, grids)))


def write_k1_csv(path, grids, times, dimension: int) -> None:
    write_csv(path, *k1_table(grids, times, dimension))


def write_k2_csv(path, grids: list[CorrelationGrid], times) -> None:
    """k2.csv: t, r, value, stderr; a block per time."""
    write_csv(path, ["t", "r", "value", "stderr"],
              ([np.full(g.values.size, t, dtype=float), g.centers, g.values,
                g.stderr] for t, g in zip(times, grids)))


def moments_table(series: MomentSeries) -> tuple:
    """moments.csv as (header, blocks): t, cell_id, l_or_n, kind, value,
    stderr by time; each cell's factorial orders come before its raw ones."""
    cells = series.factorial.shape[1]
    orders = np.r_[1:series.orders + 1, 1:series.raw_orders + 1]
    kinds = ["factorial"] * series.orders + ["raw"] * series.raw_orders
    rows = cells * orders.size
    return (["t", "cell_id", "l_or_n", "kind", "value", "stderr"],
            ([np.full(rows, t, dtype=float),
              np.repeat(np.arange(cells), orders.size),
              np.tile(orders, cells), np.tile(kinds, cells),
              np.hstack([series.factorial[k], series.raw[k]]).ravel(),
              np.hstack([series.factorial_stderr[k],
                         series.raw_stderr[k]]).ravel()]
             for k, t in enumerate(series.times)))


def write_moments_csv(path, series: MomentSeries) -> None:
    write_csv(path, *moments_table(series))


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
