"""Event-driven simulation of the spatial birth-death process.

Each replica runs the direct stochastic simulation algorithm, one event per
`SimulationState.step`: waiting times are exponential in the total event
rate B + D, where B is the integral of the birth intensity over the domain
and D the sum of all death rates; the event is a birth with probability
B / (B + D) (exact ties resolve to birth, the first kind in the fixed
ordering).  Birth positions are drawn by rejection against sup b.  Death
rates are maintained incrementally under a cell list with cell side >=
r_cut, so only neighboring cells are touched per event; per-cell rate sums
drive a two-level search for the dying particle.  Rates are recomputed from
scratch every AUDIT_PERIOD events to keep float drift in check, and the
worst residual seen is reported.  Drift a few ulps below zero is read as
zero where it is used; the one repair it needs, a death-selection fallback,
is counted.

The per-event path runs on plain Python floats and lists, with the scalar
kernel and field evaluators of `model`: an event touches only the handful of
particles near one position, where numpy's per-call cost exceeds the
arithmetic.  The neighbour query computes minimum-image distances inline,
with no call per candidate pair, and the event loop takes its uniforms from
blocks of `rng.random(n)`, which holds the same doubles as n single draws,
so the draws and the results are those of one call per uniform.

Replica streams come from counter-based Philox generators keyed by
(base_seed, replica_index), so any subset of replicas can run concurrently,
in any order, with identical results.  A replica first draws its start from
`sample_initial`: a Poisson state of a density field, or fixed points.
`run_replicas` spreads the replicas over up to `threads` forked worker
processes, at most one per replica and per CPU, and merges their results in
replica order.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .estimators import SnapshotEnsemble
from .model import ModelParams, RateField

__all__ = [
    "AUDIT_PERIOD",
    "ReplicaPlan",
    "RunStats",
    "CappedRunError",
    "SimulationState",
    "sample_initial",
    "run_replicas",
]

AUDIT_PERIOD = 1 << 16
_UNIFORM_BLOCK = 512   # doubles drawn per rng.random call of the event loop


class CappedRunError(RuntimeError):
    """A replica exceeded the event budget before reaching its horizon."""

    def __init__(self, replica: int, events: int, t: float):
        super().__init__(f"replica {replica} exceeded the event budget "
                         f"({events} events by t = {t:g})")
        self.replica = replica
        self.events = events
        self.t = t

    def __reduce__(self):   # rebuilt from its fields when sent between processes
        return type(self), (self.replica, self.events, self.t)


@dataclass
class ReplicaPlan:
    """What to run: replica count, seed, snapshot times, and the initial
    state that `sample_initial` takes (by default, no points)."""

    replicas: int
    base_seed: int
    snapshots: tuple
    initial: RateField | np.ndarray = dataclass_field(
        default_factory=lambda: np.empty((0, 0)))
    max_events: int = 10**8

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        if not 0 <= self.base_seed < 2**64:
            raise ValueError("base_seed must fit in 64 bits")
        times = tuple(float(t) for t in self.snapshots)
        if not times or not all(0 <= t < math.inf for t in times) or \
                any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("snapshots must be finite, nonnegative, ascending")
        self.snapshots = times
        if self.max_events < 1:
            raise ValueError("max_events must be positive")


@dataclass
class RunStats:
    """Aggregate counters across replicas.

    `replica_events` lists each replica's event count, in replica order.
    `selection_fallbacks` counts the float-drift repairs of
    `SimulationState._select_death`.
    `initial_s` and `event_loop_s` sum over the replicas the wall time of
    the initial sampling and of the event loop, each timed in the process
    that ran the replica; they are diagnostics, left out of comparisons.
    """

    births: int = 0
    deaths: int = 0
    events: int = 0
    max_audit_residual: float = 0.0
    selection_fallbacks: int = 0
    replica_events: list = dataclass_field(default_factory=list)
    initial_s: float = dataclass_field(default=0.0, compare=False)
    event_loop_s: float = dataclass_field(default=0.0, compare=False)

    def merge(self, other: "RunStats") -> None:
        self.births += other.births
        self.deaths += other.deaths
        self.events += other.events
        self.selection_fallbacks += other.selection_fallbacks
        self.replica_events.extend(other.replica_events)
        self.initial_s += other.initial_s
        self.event_loop_s += other.event_loop_s
        self.max_audit_residual = max(self.max_audit_residual,
                                      other.max_audit_residual)


def _sum_in_order(values) -> float:
    """The float sum of `values` added left to right, as the builtin `sum`
    adds floats before Python 3.12; from 3.12 it compensates the rounding,
    which would change the rates, the death selections and every output."""
    total = 0.0
    for v in values:
        total += v
    return total


def _block_uniforms(rng: np.random.Generator):
    """The doubles of successive rng.random() calls, drawn a block at a
    time: rng.random(n) returns the same doubles as n single calls.  The
    first block is drawn at the first next(), not at creation."""
    while True:
        yield from rng.random(_UNIFORM_BLOCK).tolist()


def _replica_rng(base_seed: int, replica: int) -> np.random.Generator:
    key = np.array([base_seed, replica], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_initial(initial, params: ModelParams,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw an initial configuration over the simulation domain.

    `initial` is an (n, d) array of points, returned as it is, or the
    density RateField of a Poisson start: a Poisson count of mean its
    integral over the domain, at positions drawn by rejection against its
    sup.  `config.build_initial` builds and checks either one.
    """
    if not isinstance(initial, RateField):
        return initial
    domain = params.window.domain
    d = params.dimension
    sup = initial.sup
    points = np.empty((int(rng.poisson(initial.integral_over(domain))), d))
    for i in range(len(points)):
        while True:
            x = domain.lo + rng.random(d) * domain.sides
            if rng.random() * sup <= float(initial(x)):
                points[i] = x
                break
    return points


class SimulationState:
    """One replica's mutable state: particles, rates, cell lists, clocks.

    Particle rows are plain lists (positions as lists of d floats), because
    every event touches only the few particles near one position.
    """

    def __init__(self, params: ModelParams, rng: np.random.Generator):
        self.params = params
        self.rng = rng
        window = params.window
        domain = window.domain
        d = window.dimension
        self.dimension = d
        self.domain_lo = domain.lo.tolist()
        self.domain_sides = domain.sides.tolist()
        self.periodic = window.boundary == "periodic"
        self.r_cut = r_cut = params.kernel.r_cut
        # pre-test on squared distance, widened so that rounding in r_cut**2
        # never rejects a pair that the exact test r <= r_cut accepts
        self._reach2 = r_cut * r_cut * (1.0 + 1e-9)
        # minimum image is applied only past half a side, where it changes
        # the displacement; never on absorbing windows
        self._sides = window.sides.tolist()
        self._halves = [s / 2.0 if self.periodic else math.inf
                        for s in self._sides]
        self._kernel = params.kernel.scalar_profile()
        self._mortality = params.mortality.scalar()
        self._birth = params.birth.scalar()
        if r_cut > 0.0:
            counts = [max(math.floor(s / r_cut), 1) for s in self.domain_sides]
        else:
            counts = [1] * d   # no interactions: one cell
        self.n_cells = counts
        self.cell_sides = [s / n for s, n in zip(self.domain_sides, counts)]
        self.total_cells = math.prod(counts)
        self.cells: list[list[int]] = [[] for _ in range(self.total_cells)]
        self.cell_rate = [0.0] * self.total_cells
        self.pos: list[list[float]] = []
        self.rate: list[float] = []
        self.cell_of: list[int] = []
        self.slot_of: list[int] = []
        self.t = 0.0
        self.d_tot = 0.0
        self.b_tot = params.birth_total
        self.b_sup = params.birth.sup
        self.births = 0
        self.deaths = 0
        self.events = 0
        self.selection_fallbacks = 0
        self.max_audit_residual = 0.0
        # neighbor cell offsets: +-1 per axis, deduplicated for tiny grids
        offs = np.stack(np.meshgrid(*([np.array([-1, 0, 1])] * d),
                                    indexing="ij"), axis=-1).reshape(-1, d)
        self._offsets = offs
        self._neighbor_cache = [self._neighbor_cells(c)
                                for c in range(self.total_cells)]
        # the event loop's uniforms; `seed_initial` draws from `rng` itself,
        # before the first block is taken
        self._uniforms = _block_uniforms(rng)

    @property
    def n(self) -> int:
        return len(self.rate)

    # -- geometry ------------------------------------------------------------

    def _cell_index(self, x) -> int:
        cell = 0
        for xi, lo, side, n in zip(x, self.domain_lo, self.cell_sides,
                                   self.n_cells):
            k = math.floor((xi - lo) / side)
            cell = cell * n + min(max(k, 0), n - 1)
        return cell

    def _neighbor_cells(self, cell: int) -> list[int]:
        base = np.asarray(np.unravel_index(cell, self.n_cells))
        raw = base + self._offsets
        if self.periodic:
            raw = np.mod(raw, self.n_cells)
        else:
            keep = np.all((raw >= 0) & (raw < self.n_cells), axis=1)
            raw = raw[keep]
        flat = np.ravel_multi_index(tuple(raw.T), self.n_cells)
        return sorted(set(int(c) for c in flat))

    def _neighbors(self, x, cell: int, exclude: int = -1):
        """Rows and kernel values of the particles within r_cut of x, which
        lies in `cell`.  Stencil cells are visited in `_neighbor_cache`
        order, then their members in list order.  The displacement is
        y - x per axis, as `Window.displacement` computes it, and the scan
        is unrolled for d = 1, 2: it runs once per candidate pair."""
        idx, vals = [], []
        if self.r_cut <= 0.0:
            return idx, vals
        pos, cells, stencil = self.pos, self.cells, self._neighbor_cache[cell]
        r_cut, reach2, kernel = self.r_cut, self._reach2, self._kernel
        sqrt = math.sqrt
        d = self.dimension
        if d == 1:
            (x0,), (l0,), (h0,) = x, self._sides, self._halves
            g0 = -h0
            for c in stencil:
                for j in cells[c]:
                    dx = pos[j][0] - x0
                    if dx > h0 or dx < g0:
                        dx -= l0 * round(dx / l0)
                    r2 = dx * dx
                    if r2 <= reach2 and j != exclude:
                        r = sqrt(r2)
                        if r <= r_cut:
                            idx.append(j)
                            vals.append(kernel(r))
        elif d == 2:
            (x0, x1), (l0, l1), (h0, h1) = x, self._sides, self._halves
            g0, g1 = -h0, -h1
            for c in stencil:
                for j in cells[c]:
                    y0, y1 = pos[j]
                    dx = y0 - x0
                    if dx > h0 or dx < g0:
                        dx -= l0 * round(dx / l0)
                    dy = y1 - x1
                    if dy > h1 or dy < g1:
                        dy -= l1 * round(dy / l1)
                    r2 = dx * dx + dy * dy
                    if r2 <= reach2 and j != exclude:
                        r = sqrt(r2)
                        if r <= r_cut:
                            idx.append(j)
                            vals.append(kernel(r))
        else:
            axes = list(zip(x, self._sides, self._halves))
            for c in stencil:
                for j in cells[c]:
                    r2 = 0.0
                    for yi, (xi, side, half) in zip(pos[j], axes):
                        u = yi - xi
                        if u > half or u < -half:
                            u -= side * round(u / side)
                        r2 += u * u
                    if r2 <= reach2 and j != exclude:
                        r = sqrt(r2)
                        if r <= r_cut:
                            idx.append(j)
                            vals.append(kernel(r))
        return idx, vals

    # -- particle bookkeeping --------------------------------------------------

    def insert(self, x) -> int:
        """Add a particle at position x; returns its row."""
        x = [float(v) for v in x]
        cell = self._cell_index(x)
        idx, vals = self._neighbors(x, cell)
        rates, cell_rate, cell_of = self.rate, self.cell_rate, self.cell_of
        d_tot, own = self.d_tot, 0.0
        for j, a in zip(idx, vals):
            rates[j] += a
            cell_rate[cell_of[j]] += a
            d_tot += a
            own += a   # left to right, as `_sum_in_order`
        rate = self._mortality(x) + own
        members = self.cells[cell]
        i = len(rates)
        self.pos.append(x)
        rates.append(rate)
        cell_of.append(cell)
        self.slot_of.append(len(members))
        members.append(i)
        cell_rate[cell] += rate
        self.d_tot = d_tot + rate
        return i

    def remove(self, i: int) -> None:
        """Delete the particle in row i; the last row moves into row i.

        Float drift can leave a rate, a cell sum or `d_tot` a few ulps below
        zero; `_select_death` and `step` read such a value as zero.
        """
        pos, rates, cell_rate = self.pos, self.rate, self.cell_rate
        cell_of, slot_of = self.cell_of, self.slot_of
        idx, vals = self._neighbors(pos[i], cell_of[i], exclude=i)
        d_tot = self.d_tot
        for j, a in zip(idx, vals):
            rates[j] -= a
            cell_rate[cell_of[j]] -= a
            d_tot -= a
        cell = cell_of[i]
        cell_rate[cell] -= rates[i]
        self.d_tot = d_tot - rates[i]
        # unlink from the cell member list by swap-remove
        members = self.cells[cell]
        last = members.pop()
        if last != i:
            slot = slot_of[i]
            members[slot] = last
            slot_of[last] = slot
        # move the last particle's record into row i
        last_row = len(rates) - 1
        if i != last_row:
            pos[i] = pos[last_row]
            rates[i] = rates[last_row]
            cell_of[i] = cell_of[last_row]
            slot_of[i] = slot_of[last_row]
            self.cells[cell_of[i]][slot_of[i]] = i
        pos.pop()
        rates.pop()
        cell_of.pop()
        slot_of.pop()

    # -- events ----------------------------------------------------------------

    def _draw_birth_position(self) -> list:
        uniforms = self._uniforms
        while True:
            x = [lo + next(uniforms) * side
                 for lo, side in zip(self.domain_lo, self.domain_sides)]
            if next(uniforms) * self.b_sup <= self._birth(x):
                return x

    def _select_death(self) -> int:
        """Row of the dying particle: a two-level search over cell sums and
        member rates.  When float drift carries the target past every sum,
        the last occupied cell or the cell's last member is taken and
        counted in `selection_fallbacks`."""
        target = next(self._uniforms) * self.d_tot
        cells = self.cells
        for c, s in enumerate(self.cell_rate):
            if target < s and cells[c]:
                break
            target -= s
        else:
            self.selection_fallbacks += 1
            c = max(k for k, members in enumerate(cells) if members)
        members = cells[c]
        rates = self.rate
        for j in members:
            if target < rates[j]:
                return j
            target -= rates[j]
        self.selection_fallbacks += 1
        return members[-1]

    def step(self, until: float = math.inf) -> str:
        """Run the next event, or set the clock to `until` and return
        'halted' when no event can happen or the event falls after `until`
        (the clock is memoryless, so the discarded wait is redrawn exactly).
        A death total a few ulps below zero halts the clock when b = 0 and
        makes the event a birth when b > 0; with b = 0 an empty window
        halts it whatever drift leaves in the death total."""
        total = self.b_tot + self.d_tot
        if total <= 0.0 or not self.rate and self.b_tot <= 0.0:
            self.t = until
            return "halted"
        t = self.t - math.log1p(-next(self._uniforms)) / total
        if t > until:
            self.t = until
            return "halted"
        self.t = t
        if self.b_tot > 0.0 and next(self._uniforms) * total <= self.b_tot:
            self.insert(self._draw_birth_position())
            self.births += 1
            kind = "birth"
        else:
            self.remove(self._select_death())
            self.deaths += 1
            kind = "death"
        self.events += 1
        if self.events % AUDIT_PERIOD == 0:
            self.audit()
        return kind

    def advance(self, until: float, max_events: int = 10**8,
                replica: int = 0) -> None:
        """Run events up to time `until`."""
        while self.step(until) != "halted":
            if self.events > max_events:
                raise CappedRunError(replica, self.events, self.t)

    # -- integrity ---------------------------------------------------------------

    def audit(self) -> float:
        """Recompute all rates from scratch; record and return the residual."""
        fresh = [self._mortality(x)
                 + _sum_in_order(self._neighbors(x, c, exclude=i)[1])
                 for i, (x, c) in enumerate(zip(self.pos, self.cell_of))]
        d_tot = _sum_in_order(fresh)
        residual = max((abs(f - r) for f, r in zip(fresh, self.rate)),
                       default=0.0)
        residual = max(residual, abs(d_tot - self.d_tot))
        self.max_audit_residual = max(self.max_audit_residual, residual)
        self.rate = fresh
        self.cell_rate = [0.0] * self.total_cells
        for c, r in zip(self.cell_of, fresh):
            self.cell_rate[c] += r
        self.d_tot = d_tot
        return residual

    def seed_initial(self, initial) -> None:
        for x in sample_initial(initial, self.params, self.rng):
            self.insert(x)

    def snapshot(self) -> np.ndarray:
        return np.array(self.pos, dtype=float).reshape(-1, self.dimension)

    def stats(self) -> RunStats:
        return RunStats(births=self.births, deaths=self.deaths,
                        events=self.events,
                        max_audit_residual=self.max_audit_residual,
                        selection_fallbacks=self.selection_fallbacks,
                        replica_events=[self.events])


def _run_one(params: ModelParams, plan: ReplicaPlan,
             replica: int) -> tuple[list[np.ndarray], RunStats]:
    t0 = time.perf_counter()
    state = SimulationState(params, _replica_rng(plan.base_seed, replica))
    state.seed_initial(plan.initial)
    t1 = time.perf_counter()
    configs = []
    for t_snap in plan.snapshots:
        state.advance(t_snap, max_events=plan.max_events, replica=replica)
        configs.append(state.snapshot())
    stats = state.stats()
    stats.initial_s = t1 - t0
    stats.event_loop_s = time.perf_counter() - t1
    return configs, stats


def run_replicas(params: ModelParams, plan: ReplicaPlan,
                 threads: int = 1) -> tuple[SnapshotEnsemble, RunStats]:
    """Run all replicas and collect their snapshots, in replica order, into
    one particle table.

    `threads` is the number of worker processes, capped by the replica count
    and `os.cpu_count()`; with one worker the replicas run in this process.
    Workers are forked, so a caller that runs other threads should pass 1.
    Results are a function of (params, plan) only: replica streams are
    independent by construction and the merge order is fixed, so the worker
    count never changes the output.
    """
    if threads < 1:
        raise ValueError("threads must be positive")
    workers = min(threads, plan.replicas, os.cpu_count() or 1)
    if workers == 1:
        results = [_run_one(params, plan, r) for r in range(plan.replicas)]
    else:
        # imported here, so that runs in one process never pay for the pool
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        chunk = -(-plan.replicas // (4 * workers))
        with ProcessPoolExecutor(workers,
                                 mp_context=get_context("fork")) as pool:
            results = list(pool.map(functools.partial(_run_one, params, plan),
                                    range(plan.replicas), chunksize=chunk))
    stats = RunStats()
    for _, replica_stats in results:
        stats.merge(replica_stats)
    points = np.concatenate([pos for configs, _ in results for pos in configs])
    counts = [[len(pos) for pos in configs] for configs, _ in results]
    return SnapshotEnsemble(params.window, plan.snapshots, points,
                            counts), stats
