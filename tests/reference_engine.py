"""The pure-Python event engine, kept as the reference for `_events.c`.

`ReferenceState` holds a replica's particles, rates and cell lists in plain
Python lists and runs the event loop that `SimulationState` hands to its
compiled code: the clock, the choice of event and the birth sampler
(`step`, drawing one uniform per `rng.random()` call), the rate fields
(`scalar_field`), the stencil neighbour scan, the rate updates of `insert`
and `remove`, the two-level death selection and the audit recompute.  It
makes the same float operations in the same order, so the two engines agree
to the last bit; `tests/test_events.py` drives both an operation at a time
and `tests/test_trajectories.py` a whole replica at a time, and both compare
them with `==`.

`views(state)` reads the buffers of a `SimulationState` as numpy views, for
the tests that look inside the compiled state.
"""

from __future__ import annotations

import bisect
import math
from types import SimpleNamespace

import numpy as np

from contpop import CappedRunError, RateField, simulator


def scalar_profile(kernel):
    """`kernel.profile` as a plain-float function of one radius r >= 0,
    with the same formulas applied to Python floats."""
    amplitude, scale = kernel.amplitude, kernel.scale
    if kernel.kind == "gaussian":
        def gaussian(r):
            q = r / scale
            return amplitude * math.exp(-0.5 * (q * q))
        return gaussian
    if kernel.kind == "exponential":
        return lambda r: amplitude * math.exp(-r / scale)
    if kernel.kind == "top-hat":
        return lambda r: amplitude if r <= scale else 0.0
    r_table = kernel._r_table.tolist()
    a_table = kernel._a_table.tolist()
    last = len(r_table) - 1

    def interp(r):   # np.interp(r, r_table, a_table, right=0.0)
        j = bisect.bisect_right(r_table, r) - 1
        if j >= last:
            return a_table[last] if r == r_table[last] else 0.0
        slope = (a_table[j + 1] - a_table[j]) / (r_table[j + 1] - r_table[j])
        return slope * (r - r_table[j]) + a_table[j]
    return interp


def scalar_field(field):
    """A `RateField` as a plain-float function of one position (a sequence
    of d floats), with the arithmetic of `field.__call__`."""
    if field.kind == "constant":
        value = field.value
        return lambda x: value
    if field.kind == "gaussian-bump":
        amplitude, center = field.amplitude, field.center.tolist()
        width2 = field.width**2

        def bump(x):
            q = 0.0
            for xi, ci in zip(x, center):
                q += (xi - ci) * (xi - ci)
            return amplitude * math.exp(-0.5 * q / width2)
        return bump
    lo, sides = field.box.lo.tolist(), field.box.sides.tolist()
    shape = field.values.shape
    flat = field.values.ravel().tolist()

    def lookup(x):   # nearest grid cell, clipped to the reference box
        k = 0
        for xi, lo_i, side, n in zip(x, lo, sides, shape):
            i = math.floor((xi - lo_i) / side * n)
            k = k * n + min(max(i, 0), n - 1)
        return flat[k]
    return lookup


def _sum_in_order(values) -> float:
    """The float sum of `values` added left to right (the builtin `sum`
    compensates the rounding from Python 3.12)."""
    total = 0.0
    for v in values:
        total += v
    return total


class ReferenceState:
    """Particles, rates and cell lists of one replica, in Python lists,
    on the cell grid of `SimulationState`; its events draw from `rng`."""

    def __init__(self, params, rng=None):
        window = params.window
        domain = window.domain
        d = window.dimension
        self.params = params
        self.rng = rng
        self.dimension = d
        self.domain_lo = domain.lo.tolist()
        self.domain_sides = domain.sides.tolist()
        self.periodic = window.boundary == "periodic"
        self.r_cut = r_cut = params.kernel.r_cut
        self._reach2 = r_cut * r_cut * (1.0 + 1e-9)
        self._sides = window.sides.tolist()
        self._halves = [s / 2.0 if self.periodic else math.inf
                        for s in self._sides]
        self._kernel = scalar_profile(params.kernel)
        self._mortality = scalar_field(params.mortality)
        self._birth = scalar_field(params.birth)
        self.b_tot = params.birth_total
        self.b_sup = params.birth.sup
        self.t = 0.0
        self.births = self.deaths = self.events = self.audits = 0
        self.rejections = 0   # birth-sampler tries turned down
        sides = domain.sides.tolist()
        counts = [max(math.floor(s / r_cut), 1) for s in sides] \
            if r_cut > 0.0 else [1] * d
        self.n_cells = counts
        self.cell_sides = [s / n for s, n in zip(sides, counts)]
        self.total_cells = math.prod(counts)
        self.cells = [[] for _ in range(self.total_cells)]
        self.cell_rate = [0.0] * self.total_cells
        self.pos, self.rate, self.cell_of, self.slot_of = [], [], [], []
        self.d_tot = 0.0
        self.selection_fallbacks = 0
        self.max_audit_residual = 0.0
        offs = np.stack(np.meshgrid(*([np.array([-1, 0, 1])] * d),
                                    indexing="ij"), axis=-1).reshape(-1, d)
        self.stencils = []
        for cell in range(self.total_cells):
            raw = np.asarray(np.unravel_index(cell, counts)) + offs
            if self.periodic:
                raw = np.mod(raw, counts)
            else:
                raw = raw[np.all((raw >= 0) & (raw < counts), axis=1)]
            flat = np.ravel_multi_index(tuple(raw.T), counts)
            self.stencils.append(sorted(set(int(c) for c in flat)))

    def cell_index(self, x) -> int:
        cell = 0
        for xi, lo, side, n in zip(x, self.domain_lo, self.cell_sides,
                                   self.n_cells):
            k = math.floor((xi - lo) / side)
            cell = cell * n + min(max(k, 0), n - 1)
        return cell

    def neighbors(self, x, cell: int, exclude: int = -1):
        """Rows and kernel values of the particles within r_cut of x, which
        lies in `cell`: stencil cells in ascending order, then their
        members in list order; the displacement y - x is folded to its
        minimum image only past half a side."""
        idx, vals = [], []
        if self.r_cut <= 0.0:
            return idx, vals
        axes = list(zip(x, self._sides, self._halves))
        for c in self.stencils[cell]:
            for j in self.cells[c]:
                r2 = 0.0
                for yi, (xi, side, half) in zip(self.pos[j], axes):
                    u = yi - xi
                    if u > half or u < -half:
                        u -= side * round(u / side)
                    r2 += u * u
                if r2 <= self._reach2 and j != exclude:
                    r = math.sqrt(r2)
                    if r <= self.r_cut:
                        idx.append(j)
                        vals.append(self._kernel(r))
        return idx, vals

    def insert(self, x) -> int:
        x = [float(v) for v in x]
        cell = self.cell_index(x)
        idx, vals = self.neighbors(x, cell)
        rates, cell_rate, cell_of = self.rate, self.cell_rate, self.cell_of
        d_tot, own = self.d_tot, 0.0
        for j, a in zip(idx, vals):
            rates[j] += a
            cell_rate[cell_of[j]] += a
            d_tot += a
            own += a
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
        pos, rates, cell_rate = self.pos, self.rate, self.cell_rate
        cell_of, slot_of = self.cell_of, self.slot_of
        idx, vals = self.neighbors(pos[i], cell_of[i], exclude=i)
        d_tot = self.d_tot
        for j, a in zip(idx, vals):
            rates[j] -= a
            cell_rate[cell_of[j]] -= a
            d_tot -= a
        cell = cell_of[i]
        cell_rate[cell] -= rates[i]
        self.d_tot = d_tot - rates[i]
        members = self.cells[cell]
        last = members.pop()
        if last != i:
            slot = slot_of[i]
            members[slot] = last
            slot_of[last] = slot
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

    def select_death(self, u: float) -> int:
        """Row of the dying particle for the uniform u; a target carried
        past every sum by float drift takes the last occupied cell or the
        cell's last member, counted in `selection_fallbacks`."""
        target = u * self.d_tot
        cells = self.cells
        for c, s in enumerate(self.cell_rate):
            if target < s and cells[c]:
                break
            target -= s
        else:
            self.selection_fallbacks += 1
            c = max(k for k, members in enumerate(cells) if members)
        members = cells[c]
        for j in members:
            if target < self.rate[j]:
                return j
            target -= self.rate[j]
        self.selection_fallbacks += 1
        return members[-1]

    def audit(self) -> float:
        fresh = [self._mortality(x)
                 + _sum_in_order(self.neighbors(x, c, exclude=i)[1])
                 for i, (x, c) in enumerate(zip(self.pos, self.cell_of))]
        d_tot = _sum_in_order(fresh)
        residual = max((abs(f - r) for f, r in zip(fresh, self.rate)),
                       default=0.0)
        residual = max(residual, abs(d_tot - self.d_tot))
        self.max_audit_residual = max(self.max_audit_residual, residual)
        self.audits += 1
        self.rate = fresh
        self.cell_rate = [0.0] * self.total_cells
        for c, r in zip(self.cell_of, fresh):
            self.cell_rate[c] += r
        self.d_tot = d_tot
        return residual

    # -- the event loop, as `SimulationState` ran it in Python ---------------

    def _draw_birth_position(self, field, sup: float) -> list:
        """A domain point of density proportional to `field` (a
        `scalar_field`) by rejection against its sup `sup`."""
        while True:
            x = [lo + self.rng.random() * side
                 for lo, side in zip(self.domain_lo, self.domain_sides)]
            if self.rng.random() * sup <= field(x):
                return x
            self.rejections += 1

    def step(self, until: float = math.inf) -> str:
        """The next event, or 'halted' with the clock at `until`; the audit
        runs every `simulator.AUDIT_PERIOD` events."""
        total = self.b_tot + self.d_tot
        if total <= 0.0 or not self.rate and self.b_tot <= 0.0:
            self.t = until
            return "halted"
        t = self.t - math.log1p(-self.rng.random()) / total
        if t > until:
            self.t = until
            return "halted"
        self.t = t
        if self.b_tot > 0.0 and self.rng.random() * total <= self.b_tot:
            self.insert(self._draw_birth_position(self._birth, self.b_sup))
            self.births += 1
            kind = "birth"
        else:
            self.remove(self.select_death(self.rng.random()))
            self.deaths += 1
            kind = "death"
        self.events += 1
        if self.events % simulator.AUDIT_PERIOD == 0:
            self.audit()
        return kind

    def advance(self, until: float, max_events: int = 10**8,
                replica: int = 0) -> None:
        while self.step(until) != "halted":
            if self.events > max_events:
                raise CappedRunError(replica, self.events, self.t)

    def seed_initial(self, initial) -> None:
        if isinstance(initial, RateField):
            density, sup = scalar_field(initial), initial.sup
            count = self.rng.poisson(
                initial.integral_over(self.params.window.domain))
            initial = [self._draw_birth_position(density, sup)
                       for _ in range(count)]
        for x in initial:
            self.insert(x)


def views(state) -> SimpleNamespace:
    """Numpy views of a `SimulationState`'s buffers: `pos` (n, d), `rate`,
    `cell_of`, `slot_of`, `cell_rate` and `cells`, a list of each cell's
    member rows.  They write through to the state, and a view is valid
    until the next insert."""
    s, n = state._s, state.n
    cells = [np.ctypeslib.as_array(s.members[c], (s.count[c],))
             if s.count[c] else np.empty(0, dtype=np.int64)
             for c in range(state.total_cells)]
    return SimpleNamespace(
        pos=np.ctypeslib.as_array(s.pos, (n * state.dimension,)).reshape(
            n, state.dimension),
        rate=np.ctypeslib.as_array(s.rate, (n,)),
        cell_of=np.ctypeslib.as_array(s.cell_of, (n,)),
        slot_of=np.ctypeslib.as_array(s.slot_of, (n,)),
        cell_rate=np.ctypeslib.as_array(s.cell_rate, (state.total_cells,)),
        cells=cells)


def neighbors(state, x, exclude: int = -1):
    """The compiled neighbour scan of a `SimulationState` at position x:
    the rows other than `exclude` within r_cut of x, and their kernel
    values, as lists in scan order."""
    idx = np.empty(max(state.n, 1), dtype=np.int64)
    vals = np.empty(max(state.n, 1))
    found = state._lib.cp_neighbors(state._c, np.asarray(x, dtype=float),
                                    exclude, idx, vals)
    return idx[:found].tolist(), vals[:found].tolist()
