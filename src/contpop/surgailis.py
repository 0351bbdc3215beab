"""Exactly soluble non-interacting flow (immigration plus independent deaths).

With the competition switched off, the model factorizes: each initial
particle at x survives to time t with probability psi_t(x) = exp(-m(x) t),
and immigration lays down an independent Poisson field with intensity
phi_t(x) = b(x) (1 - exp(-m(x) t)) / m(x)   (b(x) t where m(x) = 0).

Correlation functions evolve by a subset sum over the configuration,

    k_t(eta) = sum_{xi subset eta} prod_{x in xi} phi_t(x)
               * prod_{y in eta \\ xi} psi_t(y) * k_0(eta \\ xi),

Poisson states stay Poisson (density psi rho_0 + phi), and the same formulas
applied to a dominating initial correlation give an upper envelope for the
interacting model, since competition only removes particles.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterator, Sequence

import numpy as np

from .model import Box, ModelParams, RateField, Window

__all__ = [
    "SurgailisFlow",
    "subsets",
    "propagate_correlation",
    "poisson_density_flow",
    "expected_count",
    "box_quadrature",
]

# Enumerating all 2^n subsets is exponential; cap the configuration order.
MAX_SUBSET_ORDER = 20

# quadrature points per axis of `expected_count`, by dimension
_COUNT_POINTS = {1: 1 << 10, 2: 1 << 7, 3: 1 << 5}


def box_quadrature(box: Box, points: int,
                   periodic: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes (N, d) and weights (N,) for a box, `points` per axis
    (one more on plain boxes, whose rule includes both faces).

    Periodic boxes use the uniform wrap-around trapezoid rule (equal weights);
    plain boxes use the inclusive trapezoid product rule.
    """
    d = box.dimension
    if periodic:
        axes = [np.linspace(box.lo[i], box.hi[i], points, endpoint=False)
                for i in range(d)]
        w1 = [np.full(points, box.sides[i] / points)
              for i in range(d)]
    else:
        axes, w1 = [], []
        for i in range(d):
            axes.append(np.linspace(box.lo[i], box.hi[i], points + 1))
            w = np.full(points + 1, box.sides[i] / points)
            w[0] *= 0.5
            w[-1] *= 0.5
            w1.append(w)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1).reshape(-1, d)
    weights = np.ones(())
    for w in w1:
        weights = np.multiply.outer(weights, w)
    return pts, weights.reshape(-1)


class SurgailisFlow:
    """The non-interacting flow at a fixed time t: fields psi_t and phi_t."""

    def __init__(self, birth: RateField, mortality: RateField, window: Window,
                 t: float):
        if t < 0:
            raise ValueError("flow time must be nonnegative")
        self.birth = birth
        self.mortality = mortality
        self.window = window
        self.t = float(t)

    @classmethod
    def from_params(cls, params: ModelParams, t: float) -> "SurgailisFlow":
        """Drop the kernel of `params`; b and m are kept."""
        return cls(params.birth, params.mortality, params.window, t)

    def psi(self, x):
        """Survival factor exp(-m(x) t)."""
        m = np.asarray(self.mortality(np.asarray(x, dtype=float)), dtype=float)
        return np.exp(-m * self.t)

    def phi(self, x):
        """Immigration density accumulated by time t:
        b (1 - exp(-m t)) / m, and b t where m = 0."""
        x = np.asarray(x, dtype=float)
        b = np.asarray(self.birth(x), dtype=float)
        m = np.asarray(self.mortality(x), dtype=float)
        positive = m > 0
        closed = b * (-np.expm1(-(m * self.t))) / np.where(positive, m, 1.0)
        out = np.where(positive, closed, b * self.t)
        return float(out) if out.ndim == 0 else out


def subsets(eta: Sequence) -> Iterator[tuple[tuple, tuple]]:
    """Yield every split of eta into (subset, complement), 2^|eta| pairs.

    Elements are treated as distinct by index, so coincident points are
    separate particles.  Orders above MAX_SUBSET_ORDER are refused.
    """
    items = tuple(eta)
    n = len(items)
    if n > MAX_SUBSET_ORDER:
        raise ValueError(f"configuration order {n} exceeds {MAX_SUBSET_ORDER}")
    indices = range(n)
    for k in range(n + 1):
        for chosen in combinations(indices, k):
            rest = tuple(i for i in indices if i not in chosen)
            yield (tuple(items[i] for i in chosen),
                   tuple(items[i] for i in rest))


def propagate_correlation(eta, k0: Callable, flow: SurgailisFlow):
    """Correlation function k_t(eta) of the non-interacting flow.

    `eta` is one configuration, an (n, d) position array, or a batch of
    them, (..., n, d); the result is a float or an array of the batch
    shape.  `k0` maps a batch of (..., k, d) position arrays to the initial
    correlation values (...); k0 of the empty configuration is taken to be
    1 without calling it.  Every element of a batch sees the floating-point
    operations it would see alone.  Coincident points are distinct
    particles.  `subsets` refuses orders above MAX_SUBSET_ORDER (the sum
    has 2^n terms).
    """
    pts = np.asarray(eta, dtype=float)
    d = flow.window.dimension
    if pts.ndim < 2 or pts.shape[-1] != d:
        raise ValueError(f"eta must be an (..., n, {d}) array of positions")
    phi = flow.phi(pts)
    psi = flow.psi(pts)
    total = np.zeros(pts.shape[:-2])
    # the terms in subset order, each phi of the chosen points, then psi
    # and k0 of the rest
    for chosen, rest in subsets(range(pts.shape[-2])):
        term = np.ones(pts.shape[:-2])
        for i in chosen:
            term *= phi[..., i]
        for i in rest:
            term *= psi[..., i]
        if rest:
            term *= k0(pts[..., list(rest), :])
        total += term
    return float(total) if total.ndim == 0 else total


def poisson_density_flow(rho0, flow: SurgailisFlow, x):
    """Density at time t of an initially Poisson state: psi rho0 + phi.
    `rho0` is a density field, evaluated at x, or densities that broadcast
    against psi(x), such as one per cell at a single point x."""
    x = np.asarray(x, dtype=float)
    r0 = rho0(x) if callable(rho0) else rho0
    return flow.psi(x) * np.asarray(r0, dtype=float) + flow.phi(x)


def expected_count(region: Box, flow: SurgailisFlow, rho0) -> float:
    """Expected number of particles in `region` at time t of a flow started
    from a Poisson state of density `rho0` (a field, or a number)."""
    pts, w = box_quadrature(region, _COUNT_POINTS[region.dimension])
    vals = np.asarray(poisson_density_flow(rho0, flow, pts), dtype=float)
    return float(np.sum(w * vals))
