"""Truncated correlation-function hierarchy with moment closures.

The correlation functions of the model obey a chain of coupled equations in
which the order-n function is driven by the order-(n+1) one through the
competition kernel.  Truncating at n_max in {1, 2} requires a closure for the
first unresolved function:

  n_max = 1: k^(2) = k^(1) x k^(1)  (zero second cumulant, all closure kinds)
  n_max = 2: k^(3) built from k^(1), k^(2) by one of
      zero-third-cumulant   k3 = sum of the three k2 k1 pairings - 2 k1 k1 k1
      kirkwood              k3 = k2 k2 k2 / (k1 k1 k1), denominator floored
      mean-field            k3 = k2(x1, x2) k1(y)

Two discretizations: a translation-invariant mode (homogeneous rates, radial
kernel) evolving the scalar density plus k^(2) on a periodic separation grid,
and a full product-grid mode in dimension 1.  Convolutions are circular FFTs;
time stepping is fixed-step RK4 with a stability guard, Kahan-compensated
state accumulation, and clipping of stray negative values with an error once
the clipped mass exceeds a fixed fraction of the state.

The kernel grid, the full-grid kernel matrix and the pair-equation decay are
built once per state.  The integrator carries one flat vector [rho | k1] +
k2.ravel(), whose layout `HierarchyState.split` alone knows; each RK4 stage
evaluates the right-hand sides on views of its stage vector.  A full-grid
zero-third-cumulant stage computes the M x M convolution of k2 with the
kernel once, for `rhs_order1` and the drain.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = [
    "CLOSURES",
    "KIRKWOOD_FLOOR",
    "CLIP_BUDGET",
    "HierarchyState",
    "HierarchyTrajectory",
    "StepSizeError",
    "ClipBudgetError",
    "DivergenceError",
    "rhs_order1",
    "rhs_order2",
    "check_steps",
    "integrate",
]

KIRKWOOD_FLOOR = 1e-12
CLIP_BUDGET = 1e-3

CLOSURES = ("zero-third-cumulant", "kirkwood", "mean-field")


class StepSizeError(RuntimeError):
    """dt violates the stability guard for the current state."""


class ClipBudgetError(RuntimeError):
    """Cumulative negative-value clipping exceeded CLIP_BUDGET of the state."""


class DivergenceError(RuntimeError):
    """The integration produced non-finite values."""


def _circular_conv(x: np.ndarray, kernel_fft: np.ndarray) -> np.ndarray:
    """Circular convolution with a precomputed rfftn of the kernel grid."""
    axes = tuple(range(x.ndim))
    return np.fft.irfftn(np.fft.rfftn(x, axes=axes) * kernel_fft,
                         s=x.shape, axes=axes)


class HierarchyState:
    """Correlation state on a grid, either translation-invariant or full.

    Translation-invariant mode: `rho` is the constant density and `k2` the
    second correlation on the periodic separation grid of shape (M,)*d.
    Full-grid mode (d = 1): `k1` on the position grid (M,), `k2` on (M, M),
    and the kernel matrix a(x_i - x_j) as `a_matrix`, built once.  In both
    modes `decay2` is the pair equation's decay rate, also built once.
    """

    def __init__(self, params: ModelParams, grid_points: int, mode: str):
        window = params.window
        if window.boundary != "periodic":
            raise ValueError("hierarchy grids require a periodic window")
        if mode == "translation-invariant":
            if params.birth.kind != "constant" or params.mortality.kind != "constant":
                raise ValueError("translation-invariant mode needs constant rates")
        elif mode == "full-grid":
            if window.dimension != 1:
                raise ValueError("full-grid mode is limited to dimension 1")
        else:
            raise ValueError(f"unknown hierarchy mode {mode!r}")
        self.params = params
        self.mode = mode
        self.grid_points = int(grid_points)
        d = window.dimension
        self.spacing = window.sides / self.grid_points
        self.cell_volume = float(np.prod(self.spacing))
        # kernel sampled at minimum-image separations of the grid
        idx = np.indices((self.grid_points,) * d, dtype=float)
        sep = np.stack([idx[i] * self.spacing[i] for i in range(d)], axis=-1)
        self.a_grid = params.kernel(window.minimum_image(sep))
        self.a_fft = np.fft.rfftn(self.a_grid * self.cell_volume)
        self.a_mass = float(np.sum(self.a_grid) * self.cell_volume)
        if mode == "translation-invariant":
            self.b = float(params.birth(np.zeros(d)))
            self.m = float(params.mortality(np.zeros(d)))
            self.decay2 = 2.0 * self.m + 2.0 * self.a_grid
            self.head_size = 1
            self.rho = 0.0
            self.k1 = None
        else:
            x = np.arange(self.grid_points) * self.spacing[0]
            self.x = x
            self.a_matrix = params.kernel(window.displacement(
                x[:, None, None], x[None, :, None]))
            pts = x[:, None]
            self.b = np.asarray(params.birth(pts), dtype=float)
            self.m = np.asarray(params.mortality(pts), dtype=float)
            self.decay2 = self.m[:, None] + self.m[None, :] \
                + 2.0 * self.a_matrix
            self.head_size = self.grid_points
            self.k1 = np.zeros(self.grid_points)
            self.rho = None
        self.k2 = np.zeros(self.decay2.shape)

    # -- constructors --------------------------------------------------------

    @classmethod
    def translation_invariant(cls, params: ModelParams, grid_points: int,
                              rho0: float) -> "HierarchyState":
        state = cls(params, grid_points, "translation-invariant")
        state.rho = float(rho0)
        state.k2 = np.full(state.k2.shape, float(rho0) ** 2)
        return state

    @classmethod
    def full_grid(cls, params: ModelParams, grid_points: int,
                  k10) -> "HierarchyState":
        state = cls(params, grid_points, "full-grid")
        if callable(k10):
            state.k1 = np.asarray(k10(state.x[:, None]),
                                  dtype=float).reshape(-1).copy()
        else:
            state.k1 = np.full(state.grid_points, float(k10))
        state.k2 = np.outer(state.k1, state.k1)
        return state

    # -- the flat layout [rho | k1] + k2.ravel() of the integrator ----------

    def split(self, y: np.ndarray, n_max: int):
        """Views (head, k2) of a flat vector, or of a stack of them along the
        last axis: head is rho as a length-1 array or k1, and k2 is None for
        n_max = 1."""
        n = self.head_size
        k2 = y[..., n:].reshape(y.shape[:-1] + self.decay2.shape) \
            if n_max == 2 else None
        return y[..., :n], k2

    def pack(self, n_max: int) -> np.ndarray:
        y = np.empty(self.head_size + (self.decay2.size if n_max == 2 else 0))
        head, k2 = self.split(y, n_max)
        head[:] = self.rho if self.mode == "translation-invariant" else self.k1
        if k2 is not None:
            k2[...] = self.k2
        return y

    def _view(self, y: np.ndarray, n_max: int) -> "HierarchyState":
        """Point this state's rho/k1 and k2 at the flat vector y, without
        copying it; returns the state."""
        head, self.k2 = self.split(y, n_max)
        if self.mode == "translation-invariant":
            self.rho = float(head[0])
        else:
            self.k1 = head
        return self

    def unpack(self, y: np.ndarray, n_max: int) -> "HierarchyState":
        """A state with this one's operators and a copy of y's fields."""
        return copy.copy(self)._view(np.array(y, dtype=float), n_max)


def _closed_k2(state: HierarchyState):
    """k^(2) for order-1 truncation: zero second cumulant."""
    if state.mode == "translation-invariant":
        return np.full(state.decay2.shape, state.rho**2)
    return np.outer(state.k1, state.k1)


def _row_convolution(state: HierarchyState, k2: np.ndarray) -> np.ndarray:
    """Full grid: each row of k2 circularly convolved with the kernel,
    conv[i, j] = sum_l k2[i, l] a(x_j - x_l) dx."""
    shape = k2.shape[1:]
    return np.fft.irfftn(np.fft.rfftn(k2, axes=(1,), s=shape) *
                         state.a_fft, s=shape, axes=(1,))


def rhs_order1(state: HierarchyState, k2_conv=None):
    """Time derivative of the density / first correlation.

    Uses the state's own k^(2) when present; when the state carries only the
    first order, k^(2) is closed as the product of densities.  A full-grid
    caller that already holds `_row_convolution(state, state.k2)` passes it
    as `k2_conv`.
    """
    k2 = state.k2 if state.k2 is not None else _closed_k2(state)
    if state.mode == "translation-invariant":
        competition = float(np.sum(state.a_grid * k2)) * state.cell_volume
        return state.b - state.m * state.rho - competition
    conv = _row_convolution(state, k2) if k2_conv is None else k2_conv
    competition = np.einsum("ii->i", conv)
    return state.b - state.m * state.k1 - competition


def _third_order_integral(state: HierarchyState, closure: str,
                          k2_conv=None) -> np.ndarray:
    """Closure-dependent competition drain in the pair equation.

    Returns the integral of [a(y - x1) + a(y - x2)] k3(x1, x2, y) over y,
    with k3 built by the requested closure; k2_conv as in `rhs_order1`.
    """
    if closure not in CLOSURES:
        raise ValueError(f"unknown closure {closure!r}")
    k2 = state.k2
    if state.mode == "translation-invariant":
        rho = state.rho
        if closure == "mean-field":
            return 2.0 * state.a_mass * rho * k2
        if closure == "zero-third-cumulant":
            cross = float(np.sum(state.a_grid * k2)) * state.cell_volume
            conv = _circular_conv(k2, state.a_fft)
            return 2.0 * (rho * (state.a_mass * k2 + cross + conv)
                          - 2.0 * rho**3 * state.a_mass)
        denom = max(rho**3, KIRKWOOD_FLOOR)
        conv = _circular_conv(state.a_grid * k2,
                              np.fft.rfftn(k2 * state.cell_volume))
        return 2.0 * k2 * conv / denom
    # full grid, dimension 1
    n = state.grid_points
    k1 = state.k1
    if closure != "kirkwood":
        a_conv_k1 = np.fft.irfft(np.fft.rfft(k1) * state.a_fft, n=n)
        pair = a_conv_k1[:, None] + a_conv_k1[None, :]
        if closure == "mean-field":
            return k2 * pair
        w = _row_convolution(state, k2) if k2_conv is None else k2_conv
        diag_w = np.einsum("ii->i", w)
        term = k2 * pair
        term += k1[None, :] * diag_w[:, None] + k1[:, None] * w.T
        term += k1[:, None] * diag_w[None, :] + k1[None, :] * w
        term -= 2.0 * np.outer(k1, k1) * pair
        return term
    # per-factor floor keeps the three-factor denominator at KIRKWOOD_FLOOR
    k1f = np.maximum(k1, KIRKWOOD_FLOOR ** (1.0 / 3.0))
    ratio = k2 / k1f[None, :]
    cross = (state.a_matrix * k2) @ (ratio.T * state.cell_volume)
    pref = k2 / np.outer(k1f, k1f)
    return pref * (cross + cross.T)


def rhs_order2(state: HierarchyState, closure: str = "zero-third-cumulant",
               k2_conv=None) -> np.ndarray:
    """Time derivative of the second correlation on the state's grid;
    k2_conv as in `rhs_order1`."""
    if state.k2 is None:
        raise ValueError("state carries no second correlation")
    drain = _third_order_integral(state, closure, k2_conv)
    if state.mode == "translation-invariant":
        gain = 2.0 * state.b * state.rho
    else:
        gain = np.outer(state.b, state.k1)
        gain = gain + gain.T
    return -state.decay2 * state.k2 - drain + gain


@dataclass
class HierarchyTrajectory:
    """Recorded snapshots of a hierarchy integration."""

    mode: str
    times: np.ndarray
    density: np.ndarray          # (K,) in TI mode, (K, M) in full-grid mode
    k2: np.ndarray | None        # (K, ...) or None for order-1 runs
    separations: np.ndarray | None
    clipped_mass: float
    clip_ratio: float
    max_stability_margin: float  # max over steps of dt * stiffness / 0.5

    def final_density(self):
        return self.density[-1]


def _step_index(t: float, dt: float, what: str) -> int:
    steps = round(t / dt) if math.isfinite(t / dt) else None
    if steps is None or abs(steps * dt - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"{what} {t:g} is not a multiple of dt {dt:g}")
    return steps


def check_steps(t_end: float, dt: float, snapshots=None) -> tuple[int, dict]:
    """Raise ValueError unless dt > 0 and t_end >= 0 are finite and t_end
    and the snapshot times (default: t_end) are multiples of dt in
    [0, t_end]; returns the step count and the time of each snapshot step."""
    if not (0.0 < dt < math.inf and 0.0 <= t_end < math.inf):
        raise ValueError("needs a finite dt > 0 and a finite t_end >= 0")
    n_steps = _step_index(t_end, dt, "t_end")
    snap_steps = {}
    for t in sorted(set(snapshots)) if snapshots is not None else [t_end]:
        idx = _step_index(t, dt, "snapshot time")
        if not 0 <= idx <= n_steps:
            raise ValueError(f"snapshot time {t:g} outside [0, {t_end:g}]")
        snap_steps[idx] = t
    return n_steps, snap_steps


def integrate(state: HierarchyState, t_end: float, dt: float,
              closure: str = "zero-third-cumulant", n_max: int = 2,
              snapshots=None) -> HierarchyTrajectory:
    """Fixed-step RK4 integration of the truncated hierarchy.

    Every step enforces dt (|m| + 2 sup a + <a> sup k1) <= 1/2; violations
    raise StepSizeError rather than proceeding unstably, and the largest
    ratio of the left side to 1/2 is the trajectory's max_stability_margin.
    Negative values are clipped to zero after each step; if the cumulative
    clipped mass exceeds CLIP_BUDGET of the current state mass the run fails
    (ClipBudgetError).  The input state is left unchanged.
    """
    if n_max not in (1, 2):
        raise ValueError("n_max must be 1 or 2")
    if closure not in CLOSURES:
        raise ValueError(f"unknown closure {closure!r}")
    n_steps, snap_steps = check_steps(t_end, dt, snapshots)
    params = state.params
    work = copy.copy(state)     # its fields view each RK4 stage vector
    share_conv = (state.mode == "full-grid" and n_max == 2
                  and closure == "zero-third-cumulant")

    def rhs(y: np.ndarray) -> np.ndarray:
        work._view(y, n_max)
        # only the zero-third-cumulant drain reads the convolution again;
        # the other closures let rhs_order1 free it before rhs_order2 runs
        conv = _row_convolution(work, work.k2) if share_conv else None
        d1 = rhs_order1(work, conv)
        d2 = rhs_order2(work, closure, conv) if n_max == 2 else None
        work.k1 = work.k2 = None    # hold no stage vector at the step's peak
        f = np.empty_like(y)        # made after the terms, for the same peak
        f_head, f_k2 = state.split(f, n_max)
        f_head[:] = d1
        if f_k2 is not None:
            f_k2[...] = d2
        return f

    y = state.pack(n_max)
    comp = np.zeros_like(y)     # Kahan compensation carried across steps
    clipped = 0.0
    margin = 0.0
    recorded: list[tuple[float, np.ndarray]] = []
    if 0 in snap_steps:
        recorded.append((0.0, y.copy()))
    for step in range(1, n_steps + 1):
        sup_k1 = float(np.max(np.abs(state.split(y, n_max)[0])))
        stiffness = params.m_norm + 2.0 * params.a_sup \
            + params.a_integral * sup_k1
        if dt * stiffness > 0.5:
            raise StepSizeError(
                f"dt {dt:g} violates the stability guard at step {step}: "
                f"dt * {stiffness:g} > 0.5")
        margin = max(margin, dt * stiffness / 0.5)
        try:
            f1 = rhs(y)
            f2 = rhs(y + 0.5 * dt * f1)
            f3 = rhs(y + 0.5 * dt * f2)
            f4 = rhs(y + dt * f3)
        except OverflowError as exc:
            raise DivergenceError(f"overflow in the right-hand side at step "
                                  f"{step} (t = {step * dt:g})") from exc
        delta = (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        adj = delta - comp
        t_new = y + adj
        comp = (t_new - y) - adj
        y = t_new
        if not np.all(np.isfinite(y)):
            raise DivergenceError(f"non-finite state at step {step} "
                                  f"(t = {step * dt:g})")
        negative = y < 0.0
        if np.any(negative):
            clipped += float(-np.sum(y[negative]))
            y[negative] = 0.0
            comp[negative] = 0.0
        total = float(np.sum(np.abs(y)))
        if clipped > CLIP_BUDGET * max(total, 1e-300):
            raise ClipBudgetError(
                f"clipped mass {clipped:g} exceeds {CLIP_BUDGET:g} of the "
                f"state mass {total:g} at step {step}")
        if step in snap_steps:
            recorded.append((snap_steps[step], y.copy()))
    times = np.asarray([t for t, _ in recorded])
    total = float(np.sum(np.abs(y)))
    ratio = clipped / total if total > 0 else 0.0
    density, k2 = state.split(
        np.asarray([v for _, v in recorded]).reshape(-1, y.size), n_max)
    if state.mode == "translation-invariant":
        density = density[:, 0]
        seps = None
        if n_max == 2:
            axes = [np.arange(state.grid_points) * state.spacing[i]
                    for i in range(params.dimension)]
            seps = axes[0] if params.dimension == 1 else \
                np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    else:
        seps = state.x
    return HierarchyTrajectory(mode=state.mode, times=times, density=density,
                               k2=k2, separations=seps, clipped_mass=clipped,
                               clip_ratio=ratio, max_stability_margin=margin)
