"""Geometry, competition kernels, and rate fields of the spatial birth-death model.

Particles live in a box [0, L_1) x ... x [0, L_d), either with periodic
wrapping (distances by minimum image) or inside an absorbing buffer zone that
pads a core box in which statistics are collected.  Positions are stored as
absolute coordinates; boundary handling applies at distance computation only.

A particle at x dies at rate m(x) + sum_y a(x - y) over the other particles y;
new particles appear as a Poisson stream with spatial intensity b(x).  Kernels
a are radial, nonnegative, and truncated at a cutoff radius r_cut beyond which
they are treated as exactly zero.
"""

from __future__ import annotations

import bisect
import math
import warnings

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "Box",
    "Window",
    "CompetitionKernel",
    "RateField",
    "ModelParams",
    "death_rate",
    "death_rates",
    "cell_infimum",
]

# Kernel mass allowed beyond the automatic truncation radius, as a fraction of
# the total integral.
TAIL_FRACTION = 1e-8

# Resolution of the radial quadrature used for kernel normalization; gives
# relative errors well under the 1e-6 contract for the preset shapes.
_RADIAL_POINTS = 1 << 16


class Box:
    """Axis-aligned box [lo_i, hi_i), used for cells and observation regions."""

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("box corners must be congruent 1-d arrays")
        if np.any(self.hi <= self.lo):
            raise ValueError("box needs positive extent on every axis")

    @property
    def dimension(self) -> int:
        return self.lo.size

    @property
    def sides(self) -> NDArray[np.float64]:
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        return float(np.prod(self.sides))

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo) and np.all(x < self.hi))

    def contains_points(self, points) -> NDArray[np.bool_]:
        pts = np.asarray(points, dtype=float).reshape(-1, self.dimension)
        return np.all((pts >= self.lo) & (pts < self.hi), axis=1)

    def separation_box(self) -> "Box":
        """Box of pairwise separations {x - y : x, y in this box}."""
        s = self.sides
        return Box(-s, s)

    def __repr__(self) -> str:
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


class Window:
    """Habitat box with periodic or absorbing-buffer boundary handling.

    Periodic windows wrap distances by minimum image.  Absorbing-buffer
    windows simulate on the padded box core + buffer, with plain Euclidean
    distances; observables are meant to be collected in the core only, so the
    buffer must be at least one interaction range wide.
    """

    def __init__(self, sides, boundary: str = "periodic", buffer_width: float = 0.0):
        self.sides = np.atleast_1d(np.asarray(sides, dtype=float))
        if self.sides.ndim != 1 or np.any(self.sides <= 0):
            raise ValueError("window sides must be positive")
        if boundary not in ("periodic", "absorbing-buffer"):
            raise ValueError(f"unknown boundary mode {boundary!r}")
        self.boundary = boundary
        self.buffer_width = float(buffer_width)
        if boundary == "periodic" and self.buffer_width != 0.0:
            raise ValueError("periodic windows take no buffer")
        if boundary == "absorbing-buffer" and self.buffer_width <= 0.0:
            raise ValueError("absorbing-buffer windows need a positive buffer width")

    @property
    def dimension(self) -> int:
        return self.sides.size

    @property
    def volume(self) -> float:
        """Volume of the core (observation) box."""
        return float(np.prod(self.sides))

    @property
    def core(self) -> Box:
        return Box(np.zeros(self.dimension), self.sides)

    @property
    def domain(self) -> Box:
        """Box actually simulated: the core plus any absorbing buffer."""
        w = self.buffer_width
        if self.boundary == "periodic" or w == 0.0:
            return self.core
        return Box(-w * np.ones(self.dimension), self.sides + w)

    def displacement(self, x, y):
        """Vector(s) from x to y, minimum-image under periodic boundaries."""
        return self.minimum_image(
            np.asarray(y, dtype=float) - np.asarray(x, dtype=float))

    def minimum_image(self, u, axis: int | None = None, out=None):
        """Displacements u folded to their minimum image, u - L round(u / L),
        on a periodic window; u itself on an absorbing one.  L is the side
        of `axis`, or each side along u's last axis when axis is None.  The
        result is written into `out` when given (an array other than u, of
        the broadcast shape), so a caller can fold one axis of many pairs in
        preallocated buffers."""
        if self.boundary != "periodic":
            return u
        side = self.sides if axis is None else self.sides[axis]
        t = np.divide(u, side, out=out)
        np.rint(t, out=t)   # ties to even, as np.round
        t *= side
        return np.subtract(u, t, out=t)

    def distance(self, x, y):
        d = self.displacement(x, y)
        return np.sqrt(np.sum(np.square(d), axis=-1))

    def wrap(self, x):
        """Map a position into [0, L) per axis (periodic windows only)."""
        x = np.asarray(x, dtype=float)
        if self.boundary != "periodic":
            return x
        return np.mod(x, self.sides)


def _sphere_surface(r: NDArray[np.float64], dimension: int) -> NDArray[np.float64]:
    """Surface measure of the radius-r sphere, the radial quadrature weight."""
    if dimension == 1:
        return np.full_like(r, 2.0)
    if dimension == 2:
        return 2.0 * math.pi * r
    return 4.0 * math.pi * r * r


def _ball_volume(r: float, dimension: int) -> float:
    if dimension == 1:
        return 2.0 * r
    if dimension == 2:
        return math.pi * r * r
    return 4.0 / 3.0 * math.pi * r**3


class CompetitionKernel:
    """Radial competition kernel a(x - y) >= 0, truncated at radius r_cut.

    Preset shapes: gaussian A exp(-r^2 / 2s^2), exponential A exp(-r/s), and
    top-hat A 1[r <= s]; tabulated radial profiles use linear interpolation.
    By default r_cut is the smallest radius keeping the discarded tail mass
    below TAIL_FRACTION of the total integral.  `integral` and `sup` are the
    space integral and the maximum of the truncated kernel.
    """

    KINDS = ("gaussian", "exponential", "top-hat", "tabulated")

    def __init__(self, kind: str, dimension: int, amplitude: float = 0.0,
                 scale: float = 1.0, r_cut: float | None = None,
                 r_table=None, a_table=None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown kernel kind {kind!r}")
        if dimension not in (1, 2, 3):
            raise ValueError("kernel supports dimensions 1..3")
        self.kind = kind
        self.dimension = int(dimension)
        self.amplitude = float(amplitude)
        self.scale = float(scale)
        if self.amplitude < 0:
            raise ValueError("kernel amplitude must be nonnegative")
        if kind != "tabulated" and self.scale <= 0:
            raise ValueError("kernel range must be positive")
        if kind == "tabulated":
            self._r_table = np.asarray(r_table, dtype=float)
            self._a_table = np.asarray(a_table, dtype=float)
            if self._r_table.ndim != 1 or self._r_table.shape != self._a_table.shape:
                raise ValueError("tabulated kernel needs matching 1-d r and a tables")
            if self._r_table[0] != 0.0 or np.any(np.diff(self._r_table) <= 0):
                raise ValueError("r table must start at 0 and increase")
            if np.any(self._a_table < 0):
                raise ValueError("kernel values must be nonnegative")
        else:
            self._r_table = None
            self._a_table = None
        # Discontinuous kernels are allowed but flagged: the continuity-based
        # analytical machinery does not cover them.
        self.discontinuous = kind == "top-hat"
        if self.discontinuous and self.amplitude > 0:
            warnings.warn("top-hat kernel is discontinuous; continuity-based "
                          "bounds do not apply", UserWarning, stacklevel=2)
        self._normalize(r_cut)

    # -- constructors -------------------------------------------------------

    @classmethod
    def gaussian(cls, amplitude: float, scale: float, dimension: int,
                 r_cut: float | None = None) -> "CompetitionKernel":
        return cls("gaussian", dimension, amplitude, scale, r_cut)

    @classmethod
    def exponential(cls, amplitude: float, scale: float, dimension: int,
                    r_cut: float | None = None) -> "CompetitionKernel":
        return cls("exponential", dimension, amplitude, scale, r_cut)

    @classmethod
    def top_hat(cls, amplitude: float, scale: float, dimension: int,
                r_cut: float | None = None) -> "CompetitionKernel":
        return cls("top-hat", dimension, amplitude, scale, r_cut)

    @classmethod
    def tabulated(cls, r_table, a_table, dimension: int,
                  r_cut: float | None = None) -> "CompetitionKernel":
        return cls("tabulated", dimension, amplitude=0.0, scale=1.0,
                   r_cut=r_cut, r_table=r_table, a_table=a_table)

    @classmethod
    def zero(cls, dimension: int) -> "CompetitionKernel":
        """The non-interacting model a == 0."""
        return cls("gaussian", dimension, amplitude=0.0, scale=1.0)

    # -- evaluation ---------------------------------------------------------

    def profile(self, r):
        """Untruncated radial profile a(r)."""
        r = np.asarray(r, dtype=float)
        if self.kind == "gaussian":
            return self.amplitude * np.exp(-0.5 * (r / self.scale) ** 2)
        if self.kind == "exponential":
            return self.amplitude * np.exp(-r / self.scale)
        if self.kind == "top-hat":
            return np.where(r <= self.scale, self.amplitude, 0.0)
        return np.interp(r, self._r_table, self._a_table, right=0.0)

    def scalar_profile(self):
        """`profile` as a plain-float function of one radius r >= 0.

        It applies the formulas of `profile` to Python floats, so a value
        differs from `profile`'s by rounding only; the simulator's per-event
        path calls it on the few particles near one position.
        """
        amplitude, scale = self.amplitude, self.scale
        if self.kind == "gaussian":
            def gaussian(r):
                q = r / scale
                return amplitude * math.exp(-0.5 * (q * q))
            return gaussian
        if self.kind == "exponential":
            return lambda r: amplitude * math.exp(-r / scale)
        if self.kind == "top-hat":
            return lambda r: amplitude if r <= scale else 0.0
        r_table = self._r_table.tolist()
        a_table = self._a_table.tolist()
        last = len(r_table) - 1

        def interp(r):   # np.interp(r, r_table, a_table, right=0.0)
            j = bisect.bisect_right(r_table, r) - 1
            if j >= last:
                return a_table[last] if r == r_table[last] else 0.0
            slope = (a_table[j + 1] - a_table[j]) / (r_table[j + 1] - r_table[j])
            return slope * (r - r_table[j]) + a_table[j]
        return interp

    def radial(self, r):
        """Truncated radial profile: zero beyond r_cut."""
        r = np.asarray(r, dtype=float)
        if self.r_cut == 0.0:
            return np.zeros_like(r)
        return np.where(r <= self.r_cut, self.profile(r), 0.0)

    def __call__(self, u):
        """Kernel value at separation vector(s) u of shape (..., d)."""
        u = np.asarray(u, dtype=float)
        r = np.sqrt(np.sum(np.square(u), axis=-1))
        return self.radial(r)

    # -- normalization ------------------------------------------------------

    def _is_zero(self) -> bool:
        if self.kind == "tabulated":
            return bool(np.all(self._a_table == 0.0))
        return self.amplitude == 0.0

    def _normalize(self, r_cut: float | None) -> None:
        if self._is_zero():
            self.r_cut = 0.0
            self.integral = 0.0
            self.sup = 0.0
            return
        if self.kind == "top-hat":
            self.r_cut = self.scale if r_cut is None else min(float(r_cut), self.scale)
            if self.r_cut <= 0:
                raise ValueError("r_cut must be positive")
            self.integral = self.amplitude * _ball_volume(self.r_cut, self.dimension)
            self.sup = self.amplitude
            return
        if self.kind == "gaussian":
            r_max = 12.0 * self.scale
        elif self.kind == "exponential":
            r_max = 60.0 * self.scale
        else:
            r_max = float(self._r_table[-1])
        if r_cut is not None:
            if r_cut <= 0:
                raise ValueError("r_cut must be positive")
            r_max = min(r_max, float(r_cut))
        r = np.linspace(0.0, r_max, _RADIAL_POINTS + 1)
        f = self.profile(r) * _sphere_surface(r, self.dimension)
        # cumulative trapezoid of the radial mass
        seg = 0.5 * (f[1:] + f[:-1]) * np.diff(r)
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        total = cum[-1]
        if total <= 0:
            raise ValueError("kernel has zero mass inside r_cut")
        if r_cut is not None:
            self.r_cut = float(r_cut)
            self.integral = float(total)
        else:
            idx = int(np.searchsorted(cum, (1.0 - TAIL_FRACTION) * total))
            idx = min(idx, len(r) - 1)
            self.r_cut = float(r[idx])
            self.integral = float(cum[idx])
        if self.kind == "tabulated":
            mask = self._r_table <= self.r_cut
            self.sup = float(np.max(self._a_table[mask])) if np.any(mask) else 0.0
        else:
            self.sup = self.amplitude  # presets peak at r = 0


class RateField:
    """Nonnegative scalar field over the habitat: birth intensity or mortality.

    Kinds: `constant`; `tabulated`, piecewise constant on a regular grid over
    a box; `gaussian-bump`, A exp(-|x - c|^2 / 2w^2) with norms taken over a
    reference box.
    """

    def __init__(self, kind: str, dimension: int):
        self.kind = kind
        self.dimension = int(dimension)

    @classmethod
    def constant(cls, value: float, dimension: int) -> "RateField":
        if value < 0:
            raise ValueError("rate fields must be nonnegative")
        field = cls("constant", dimension)
        field.value = float(value)
        return field

    @classmethod
    def tabulated(cls, values, box: Box) -> "RateField":
        field = cls("tabulated", box.dimension)
        field.values = np.asarray(values, dtype=float)
        if field.values.ndim != box.dimension:
            raise ValueError("value grid rank must equal the box dimension")
        if np.any(field.values < 0):
            raise ValueError("rate fields must be nonnegative")
        field.box = box
        return field

    @classmethod
    def gaussian_bump(cls, amplitude: float, center, width: float, box: Box) -> "RateField":
        if amplitude < 0 or width <= 0:
            raise ValueError("bump needs nonnegative amplitude and positive width")
        field = cls("gaussian-bump", box.dimension)
        field.amplitude = float(amplitude)
        field.center = np.atleast_1d(np.asarray(center, dtype=float))
        field.width = float(width)
        field.box = box
        return field

    def __call__(self, x):
        """Field value at position(s) x of shape (..., d)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dimension:
            raise ValueError("position dimension mismatch")
        if self.kind == "constant":
            return np.full(x.shape[:-1], self.value) if x.ndim > 1 else self.value
        if self.kind == "gaussian-bump":
            q = np.sum(np.square(x - self.center), axis=-1)
            return self.amplitude * np.exp(-0.5 * q / self.width**2)
        # tabulated: nearest grid cell, clipped to the reference box
        rel = (x - self.box.lo) / self.box.sides
        idx = np.floor(rel * np.asarray(self.values.shape)).astype(int)
        idx = np.clip(idx, 0, np.asarray(self.values.shape) - 1)
        if x.ndim == 1:
            return float(self.values[tuple(idx)])
        return self.values[tuple(np.moveaxis(idx, -1, 0))]

    def scalar(self):
        """The field as a plain-float function of one position (a sequence
        of d floats), with the arithmetic of `__call__`."""
        if self.kind == "constant":
            value = self.value
            return lambda x: value
        if self.kind == "gaussian-bump":
            amplitude, center = self.amplitude, self.center.tolist()
            width2 = self.width**2

            def bump(x):
                q = 0.0
                for xi, ci in zip(x, center):
                    q += (xi - ci) * (xi - ci)
                return amplitude * math.exp(-0.5 * q / width2)
            return bump
        lo, sides = self.box.lo.tolist(), self.box.sides.tolist()
        shape = self.values.shape
        flat = self.values.ravel().tolist()

        def lookup(x):   # nearest grid cell, clipped to the reference box
            k = 0
            for xi, lo_i, side, n in zip(x, lo, sides, shape):
                i = math.floor((xi - lo_i) / side * n)
                k = k * n + min(max(i, 0), n - 1)
            return flat[k]
        return lookup

    @property
    def sup(self) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "tabulated":
            return float(np.max(self.values))
        return self.amplitude if self.box.contains(self.center) else self._grid_max()

    def _grid_max(self) -> float:
        pts = _box_grid(self.box, 256 if self.dimension == 1 else 33)
        return float(np.max(self(pts)))

    def integral_over(self, box: Box) -> float:
        """Integral of the field over `box`."""
        if self.kind == "constant":
            return self.value * box.volume
        if self.kind == "tabulated":
            total = self.values
            for axis in range(self.dimension):
                n = self.values.shape[axis]
                edges = np.linspace(self.box.lo[axis], self.box.hi[axis], n + 1)
                lo = np.maximum(edges[:-1], box.lo[axis])
                hi = np.minimum(edges[1:], box.hi[axis])
                overlap = np.maximum(hi - lo, 0.0)
                total = np.tensordot(overlap, total, axes=(0, 0))
            return float(total)
        # gaussian-bump: midpoint rule on a dense grid restricted to the box
        n = 1 << 13 if self.dimension == 1 else (1 << 7 if self.dimension == 2 else 1 << 5)
        axes = [np.linspace(box.lo[i], box.hi[i], n, endpoint=False) +
                0.5 * box.sides[i] / n for i in range(self.dimension)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        cell = box.volume / n**self.dimension
        return float(np.sum(self(mesh)) * cell)


def _box_grid(box: Box, points_per_axis: int) -> NDArray[np.float64]:
    axes = [np.linspace(box.lo[i], box.hi[i], points_per_axis)
            for i in range(box.dimension)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


class ModelParams:
    """Model bundle: window, kernel, birth field b, mortality field m, theta0.

    theta0 is the exponent of the initial correlation norm; it seeds the
    analytical bounds and the continuation schedule.
    """

    def __init__(self, window: Window, kernel: CompetitionKernel,
                 birth: RateField, mortality: RateField, theta0: float = 0.0):
        if kernel.dimension != window.dimension:
            raise ValueError("kernel/window dimension mismatch")
        if birth.dimension != window.dimension or mortality.dimension != window.dimension:
            raise ValueError("rate-field/window dimension mismatch")
        if window.boundary == "periodic":
            half = float(np.min(window.sides)) / 2.0
            if kernel.r_cut > half + 1e-12:
                raise ValueError(
                    f"kernel r_cut {kernel.r_cut:g} exceeds half the smallest "
                    f"periodic side {half:g}")
        else:
            if window.buffer_width < kernel.r_cut:
                raise ValueError("absorbing buffer must be at least r_cut wide")
        self.window = window
        self.kernel = kernel
        self.birth = birth
        self.mortality = mortality
        self.theta0 = float(theta0)
        # cached norms used throughout the bounds and the simulator
        self.b_norm = birth.sup
        self.m_norm = mortality.sup
        self.a_integral = kernel.integral
        self.a_sup = kernel.sup
        self.birth_total = birth.integral_over(window.domain)

    @property
    def dimension(self) -> int:
        return self.window.dimension


def death_rate(x, config, params: ModelParams) -> float:
    """Death rate of the particle at x within `config`: m(x) + sum over others.

    `config` is an (n, d) array of positions and must contain x (an exact
    coordinate match); exactly one matching entry is excluded from the kernel
    sum, so coincident particles still count each other as competitors.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    pos = np.asarray(config, dtype=float).reshape(-1, x.size)
    matches = np.flatnonzero(np.all(pos == x, axis=1))
    if matches.size == 0:
        raise ValueError("x is not a member of the configuration")
    others = np.delete(pos, matches[0], axis=0)
    rate = float(params.mortality(x))
    if others.size:
        rate += float(np.sum(params.kernel(params.window.displacement(x, others))))
    return rate


def death_rates(positions, params: ModelParams) -> NDArray[np.float64]:
    """Death rates of every particle in the configuration."""
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    rates = np.asarray(params.mortality(pos), dtype=float).reshape(n) if n else np.zeros(0)
    if n > 1 and params.kernel.r_cut > 0.0:
        disp = params.window.displacement(pos[:, None, :], pos[None, :, :])
        a = params.kernel(disp)
        np.fill_diagonal(a, 0.0)
        rates = rates + np.sum(a, axis=1)
    return rates


def cell_infimum(kernel: CompetitionKernel, box: Box, divisions: int = 64) -> float:
    """Infimum of the kernel over a box in separation space, clamped at zero.

    Scans a dense inclusive grid with pitch at most side/divisions per axis.
    Returns 0.0 when the scanned infimum is nonpositive.
    """
    inf = float(np.min(kernel(_box_grid(box, divisions + 1))))
    return inf if inf > 0.0 else 0.0
