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

    def minimum_image(self, u):
        """Displacements u folded to their minimum image, u - L round(u / L)
        with L each side along u's last axis, on a periodic window; u itself
        on an absorbing one.  `np.rint` rounds ties to even, as np.round."""
        if self.boundary != "periodic":
            return u
        return u - np.rint(u / self.sides) * self.sides


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

    Preset shapes, of amplitude A and scale s: gaussian A exp(-r^2 / 2s^2),
    exponential A exp(-r/s), and top-hat A 1[r <= s]; a tabulated kernel
    interpolates a_table linearly over r_table, and A and s do not enter
    it.  The default amplitude 0 is the non-interacting kernel.  By default
    r_cut is the smallest radius keeping the discarded tail mass below
    TAIL_FRACTION of the total integral.  `integral` and `sup` are the
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
    a box; `gaussian-bump`, A exp(-|x - c|^2 / 2w^2), with closed-form norms:
    its sup over a reference box is its value at the box point nearest c.
    """

    KINDS = ("constant", "gaussian-bump", "tabulated")

    def __init__(self, kind: str, dimension: int):
        if kind not in self.KINDS:
            raise ValueError(f"unknown rate field kind {kind!r}")
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
        if field.center.shape != (box.dimension,):
            raise ValueError(f"bump center must list {box.dimension} "
                             "coordinates")
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

    @property
    def sup(self) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "tabulated":
            return float(np.max(self.values))
        return float(self(np.clip(self.center, self.box.lo, self.box.hi)))

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
        # gaussian-bump: a product of w sqrt(pi/2) (erf(b) - erf(a)) over the
        # axes, a and b the box's ends less the centre over w sqrt(2); erfc
        # on one side of the centre keeps the tail's digits
        s = self.width * math.sqrt(2.0)
        total = self.amplitude
        for c, lo, hi in zip(self.center.tolist(), box.lo.tolist(),
                             box.hi.tolist()):
            a, b = (lo - c) / s, (hi - c) / s
            if b < 0.0:
                a, b = -b, -a
            total *= 0.5 * math.sqrt(math.pi) * s * (
                math.erfc(a) - math.erfc(b) if a > 0.0
                else math.erf(b) - math.erf(a))
        return total


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


def cell_infimum(kernel: CompetitionKernel, box: Box) -> float:
    """Infimum of the kernel over a box in separation space: the least
    truncated radial value at the ends of the box's radius interval and at
    the knots inside it of a tabulated kernel, linear between them."""
    near = np.sqrt(np.sum(np.square(np.clip(0.0, box.lo, box.hi))))
    far = np.sqrt(np.sum(np.square(np.maximum(-box.lo, box.hi))))
    knots = kernel._r_table if kernel.kind == "tabulated" else np.empty(0)
    radii = [near, far, *knots[(knots > near) & (knots < far)]]
    return float(np.min(kernel.radial(radii)))
